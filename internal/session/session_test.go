package session

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/store"
)

func smallTable() *store.Table {
	rng := rand.New(rand.NewSource(1))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 200, K: 2, Dims: 4, Sep: 6}, rng)
	return ds.Table
}

// openTable opens a session on a Dataset of its own over t, detected
// with opts.
func openTable(m *Manager, t store.Relation, opts core.Options, tenant string) (*Session, error) {
	d, err := core.NewDataset(t, opts)
	if err != nil {
		return nil, err
	}
	return m.Open(d, tenant), nil
}

func TestOpenGetClose(t *testing.T) {
	m := NewManagerObs(jobs.Config{}, nil)
	s, err := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.ID == "" {
		t.Fatal("empty session ID")
	}
	got, err := m.Get(s.ID)
	if err != nil || got != s {
		t.Fatal("get failed")
	}
	if m.Len() != 1 {
		t.Fatal("len wrong")
	}
	if err := m.Close(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(s.ID); err == nil {
		t.Error("closed session should be gone")
	}
	if err := m.Close(s.ID); err == nil {
		t.Error("double close should fail")
	}
}

func TestOpenInvalidTable(t *testing.T) {
	m := NewManagerObs(jobs.Config{}, nil)
	empty := store.NewTable("empty")
	empty.MustAddColumn(store.NewFloatColumn("x"))
	if _, err := openTable(m, empty, core.Options{}, ""); err == nil {
		t.Error("empty table should fail to open")
	}
}

func TestDoSerializesAccess(t *testing.T) {
	m := NewManagerObs(jobs.Config{}, nil)
	s, err := openTable(m, smallTable(), core.Options{Seed: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.Do(func(e *core.Explorer) error {
				_, err := e.SelectTheme(0)
				if err != nil {
					return err
				}
				return e.Rollback()
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// After balanced select+rollback pairs, state is back to init.
	_ = s.Do(func(e *core.Explorer) error {
		if len(e.History()) != 1 {
			t.Errorf("history = %d, want 1", len(e.History()))
		}
		return nil
	})
}

// TestList: creation order, also across the point where the ID counter
// outgrows its zero-padded width ("s10000" sorts before "s9999" as a
// plain string).
func TestList(t *testing.T) {
	m := NewManagerObs(jobs.Config{}, nil)
	m.nextID = 9998
	var want []string
	for seed := int64(3); seed < 6; seed++ {
		s, err := openTable(m, smallTable(), core.Options{Seed: seed}, "")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, s.ID)
	}
	if want[0] != "s9999" || want[2] != "s10001" {
		t.Fatalf("opened %v, want the IDs to straddle s9999/s10000", want)
	}
	if ids := m.List(); !reflect.DeepEqual(ids, want) {
		t.Errorf("list = %v, want creation order %v", ids, want)
	}
}

func TestConcurrentOpen(t *testing.T) {
	m := NewManagerObs(jobs.Config{}, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := openTable(m, smallTable(), core.Options{Seed: seed}, ""); err != nil {
				t.Error(err)
			}
		}(int64(i))
	}
	wg.Wait()
	if m.Len() != 8 {
		t.Errorf("len = %d, want 8", m.Len())
	}
	// IDs must be unique.
	seen := map[string]bool{}
	for _, id := range m.List() {
		if seen[id] {
			t.Fatalf("duplicate ID %s", id)
		}
		seen[id] = true
	}
}

// TestEvictIdleDoesNotStallRegistry: the idle sweep must not wait for a
// session's lock while it holds the registry's — since a filter's scan
// runs inside Do, that parked every Get, Open, Submit and Close of every
// session behind the slowest click in flight.
func TestEvictIdleDoesNotStallRegistry(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	busy, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	other, _ := openTable(m, smallTable(), core.Options{Seed: 2}, "")

	held, release := make(chan struct{}), make(chan struct{})
	clicked := make(chan error, 1)
	go func() {
		clicked <- busy.Do(func(*core.Explorer) error {
			close(held)
			<-release // a long scan under the session lock
			return nil
		})
	}()
	<-held

	swept := make(chan int, 1)
	go func() { swept <- m.EvictIdle(time.Hour) }()
	answered := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond) // let the sweep reach the busy session
		_, err := m.Get(other.ID)
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Error("Get of another session waited behind a click in flight once the sweep had started")
	}
	close(release)
	if err := <-clicked; err != nil {
		t.Error(err)
	}
	if n := <-swept; n != 0 {
		t.Errorf("sweep evicted %d fresh sessions", n)
	}
}

// TestEvictIdleReleasesSpentMatrices: a dataset's spent distance
// matrices outlive its sessions, so the next session's first build
// reuses one, until a sweep finds the dataset with no open session and
// releases them: the first build after it allocates a whole matrix. The
// sample is within PAMThreshold, so its build runs exact PAM over a
// matrix.
func TestEvictIdleReleasesSpentMatrices(t *testing.T) {
	const n = 1000
	m := NewManagerObs(jobs.Config{}, nil)
	defer m.Shutdown()
	rng := rand.New(rand.NewSource(3))
	tab := datagen.PlantedBlobs(datagen.BlobSpec{N: n, K: 3, Dims: 4, Sep: 6}, rng).Table
	opts := core.Options{Seed: 1, SampleSize: n, MapCacheSize: -1}
	d, err := core.NewDataset(tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	// session opens a session on d, builds its first map, closes it and
	// returns the bytes the build allocated.
	session := func() uint64 {
		s := m.Open(d, "")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Do(func(e *core.Explorer) error { _, err := e.SelectTheme(0); return err }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if err := m.Close(s.ID); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	matrix := uint64(n*(n-1)/2) * 8
	session()
	if got := session(); got >= matrix/2 {
		t.Fatalf("a session's first build after another's allocated %d bytes, one matrix is %d", got, matrix)
	}
	if evicted := m.EvictIdle(time.Hour); evicted != 0 {
		t.Fatalf("the sweep evicted %d sessions, none is open", evicted)
	}
	if got := session(); got < matrix {
		t.Fatalf("the first build after a sweep allocated %d bytes, less than its %d-byte matrix", got, matrix)
	}
}
