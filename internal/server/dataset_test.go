package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/store"
)

// detectCounter wraps a relation and counts theme detections on it:
// detection lists the columns once, and nothing else an open does
// lists them. While panics is positive, a listing panics instead.
type detectCounter struct {
	store.Relation
	calls  atomic.Int32
	panics atomic.Int32
}

func (r *detectCounter) ColumnNames() []string {
	r.calls.Add(1)
	if r.panics.Add(-1) >= 0 {
		panic("column listing failed")
	}
	return r.Relation.ColumnNames()
}

func detectServer(t *testing.T, rel *detectCounter) *Server {
	t.Helper()
	srv := NewWith(map[string]store.Relation{"blobs": rel}, core.Options{Seed: 1, SampleSize: 200}, nil)
	t.Cleanup(srv.Manager().Shutdown)
	return srv
}

func blobsRelation() *detectCounter {
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 300, K: 3, Dims: 4, Sep: 8}, rand.New(rand.NewSource(1)))
	return &detectCounter{Relation: ds.Table}
}

// TestDatasetDetectedOnce: concurrent first opens of one dataset run
// theme detection once, and every session on it shares its dependency
// graph.
func TestDatasetDetectedOnce(t *testing.T) {
	rel := blobsRelation()
	srv := detectServer(t, rel)
	const opens = 8
	ids := make([]string, opens)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range opens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := post(srv, "/api/sessions", `{"dataset":"blobs"}`)
			var st stateJSON
			if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
				t.Errorf("open %d: status %d, body %s", i, rec.Code, rec.Body)
			}
			ids[i] = st.SessionID
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := rel.calls.Load(); n != 1 {
		t.Errorf("%d concurrent first opens ran detection %d times, want once", opens, n)
	}
	var graphs []any
	for _, id := range ids {
		sess, err := srv.Manager().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = sess.Do(func(e *core.Explorer) error {
			graphs = append(graphs, e.DependencyGraph())
			return nil
		})
	}
	for i, g := range graphs[1:] {
		if g != graphs[0] {
			t.Errorf("session %s has a dependency graph of its own, not the dataset's", ids[i+1])
		}
	}
}

// TestDatasetDetectionPanicIsRetried: a first open whose detection
// panics does not keep the failure; the next open detects again and
// answers 201.
func TestDatasetDetectionPanicIsRetried(t *testing.T) {
	rel := blobsRelation()
	rel.panics.Store(1)
	srv := detectServer(t, rel)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the first open did not panic")
			}
		}()
		post(srv, "/api/sessions", `{"dataset":"blobs"}`)
	}()
	if rec := post(srv, "/api/sessions", `{"dataset":"blobs"}`); rec.Code != http.StatusCreated {
		t.Fatalf("the open after a panicked detection: status %d, body %s", rec.Code, rec.Body)
	}
	if n := rel.calls.Load(); n != 2 {
		t.Errorf("detection ran %d times, want 2 (the panicked one, then the retry)", n)
	}
}
