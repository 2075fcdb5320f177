package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// distForkOracle is the half of every k-medoid loop that the one-contract
// Oracle deleted, kept as a test double: an oracle with no row or subset
// code of its own. RowInto is a loop of pair queries in the argument
// order the deleted loops used (Dist(j, i), object first, medoid or
// candidate second), and Subset is a plain re-indexing wrapper.
// Whatever a k-medoid loop computes over a real storage's rows and
// views it must also compute over this.
type distForkOracle struct {
	o   Oracle
	idx []int // fork object -> object of o
}

func newDistFork(o Oracle) distForkOracle {
	idx := make([]int, o.N())
	for i := range idx {
		idx[i] = i
	}
	return distForkOracle{o: o, idx: idx}
}

func (f distForkOracle) N() int { return len(f.idx) }

func (f distForkOracle) Dist(i, j int) float64 { return f.o.Dist(f.idx[i], f.idx[j]) }

func (f distForkOracle) RowInto(i int, dst []float64) {
	for j := range dst {
		dst[j] = f.Dist(j, i)
	}
}

func (f distForkOracle) Subset(idx []int) Oracle {
	composed := make([]int, len(idx))
	for a, i := range idx {
		composed[a] = f.idx[i]
	}
	return distForkOracle{o: f.o, idx: composed}
}

func (f distForkOracle) DistEvals() int64 { return 0 }

// TestRowLoopsMatchDistFork pins every k-medoid entry point — PAM, and
// CLARA with its per-sample subsets — to the same medoids, labels and
// cost whether the oracle serves rows and subsets from its storage or
// through pair queries alone.
func TestRowLoopsMatchDistFork(t *testing.T) {
	vecs, _ := blobs(rand.New(rand.NewSource(31)), 4, 160, 4, 5)
	metric := stats.Euclidean{}
	for _, real := range []struct {
		name string
		o    Oracle
	}{
		{"matrix", ComputeDistMatrix(vecs, metric)},
		{"view", ComputeDistMatrix(vecs, metric).Subset(rand.New(rand.NewSource(32)).Perm(len(vecs))[:500])},
		{"lazy", NewLazyOracle(vecs, metric)},
	} {
		fork := newDistFork(real.o)
		n := real.o.N()
		runs := []struct {
			name string
			run  func(o Oracle) (*Clustering, error)
		}{
			{"pam", func(o Oracle) (*Clustering, error) { return PAM(o, 4) }},
			{"clara", func(o Oracle) (*Clustering, error) {
				return CLARA(o, 4, CLARAOptions{Rand: rand.New(rand.NewSource(33))})
			}},
		}
		for _, r := range runs {
			want, err := r.run(fork)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.run(real.o)
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalClustering(t, real.name+"/"+r.name, n, got, want)
		}
	}
}
