package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// script holds the seed's choices for a run. The server never sees the
// seed, only the clicks made from it.
type script struct {
	// filterZ places the filter threshold, in standard deviations from
	// the mean of the filtered column over the region being filtered.
	filterZ float64
	// colPick chooses the column the explore script highlights and
	// filters on, out of the selected theme's.
	colPick int
}

// filterMenu is the small menu of filter thresholds: each keeps between
// 40% and 60% of a roughly symmetric region.
var filterMenu = []float64{-0.2, -0.1, 0, 0.1, 0.2}

func newScript(seed int64) script {
	rng := rand.New(rand.NewSource(seed ^ 0x5c71b7))
	return script{filterZ: filterMenu[rng.Intn(len(filterMenu))], colPick: rng.Intn(1 << 20)}
}

// mainThemes returns the two themes with the most columns, largest
// first (ties in listed order); the state must list two. The scripts
// select the first and project onto the second, whatever order theme
// detection lists them in: on LOFAR the big physical theme is sometimes
// theme 0, sometimes last.
func mainThemes(st *stateResp) (first, second themeResp) {
	ts := append([]themeResp(nil), st.Themes...)
	sort.SliceStable(ts, func(a, b int) bool { return len(ts[a].Columns) > len(ts[b].Columns) })
	return ts[0], ts[1]
}

// steps counts the clicks of a scripted session, so that the ones the
// script could not reach after a failure are booked as failed
// operations too.
type steps struct {
	rec        *recorder
	total, ran int
}

func (s *steps) did(ok bool) bool { s.ran++; return ok }

func (s *steps) bookSkipped() {
	for ; s.ran < s.total; s.ran++ {
		s.rec.done("skipped", []string{"an earlier click of the session failed"})
	}
}

// exploreClicks is the length of the explore script.
const exploreClicks = 12

// exploreRound is the cold deep-navigation script on a fresh session:
//
//	open → select(t0) → zoom[p0] → highlight → project(t1) → rollback →
//	rollback → zoom[p0] (map-cache hit) → zoom[p1] (derived oracle) →
//	filter(expr) → map.svg → DELETE
//
// t0 and t1 are the two largest themes (see mainThemes), p0 is the
// largest region of the first map and p1 the largest region
// of p0's map, both read from the returned JSON. The highlight inspects
// p1 before it is zoomed into, so its mean and deviation place the
// filter threshold inside the selection the filter will see. withState
// adds a GET of the state before the DELETE (the traced run's route
// probe uses it; the workload's script does not).
//
// It returns the digest of the round and whether every click ran; a
// click that cannot run (its predecessor failed) is booked as failed.
func exploreRound(c *client, sc script, tenant string, withState bool) (digest uint64, ok bool) {
	n := newNav(c)
	st := &steps{rec: c.rec, total: exploreClicks}
	if withState {
		st.total++
	}
	defer st.bookSkipped()
	step := st.did

	if !step(n.open(tenant)) || len(n.cur.Themes) < 2 {
		return 0, false
	}
	t0, t1 := mainThemes(&n.cur)
	col := t0.Columns[sc.colPick%len(t0.Columns)]
	if !step(n.selectTheme(t0.ID)) {
		return 0, false
	}
	p0 := n.cur.Map.leaves()[0].path
	if !step(n.zoom(p0, false)) {
		return 0, false
	}
	p1 := n.cur.Map.leaves()[0].path
	h, good := n.highlight(col, p1)
	if !step(good) {
		return 0, false
	}
	if !step(n.project(t1.ID, false)) || !step(n.rollback()) || !step(n.rollback()) {
		return 0, false
	}
	if !step(n.zoom(p0, true)) || !step(n.zoom(p1, false)) {
		return 0, false
	}
	expr := fmt.Sprintf("%s >= %s", col, strconv.FormatFloat(h.Stats.Mean+sc.filterZ*h.Stats.Std, 'f', 4, 64))
	if !step(n.filter(expr)) || !step(n.svg()) {
		return 0, false
	}
	if withState && !step(n.state()) {
		return 0, false
	}
	if !step(n.closeSession()) {
		return 0, false
	}
	return n.takeDigest(), true
}

// warmSession is a long-lived session primed so that every build of
// the revisit cycle is a map-cache hit.
type warmSession struct {
	n      *nav
	p0, p1 []int
	hl     []int // region of p1's map the second highlight inspects
	t1     int   // theme the cycle projects onto
	c1, c2 string
	// first is the digest of the first complete cycle; every later
	// cycle must repeat it.
	first    uint64
	hasFirst bool
}

// primeWarm opens the session and visits, once, every map the cycle
// revisits. It belongs to set-up.
//
// The cycle highlights the first column of each main theme, for every
// seed. A highlight is most of what a warm cycle allocates, and how much
// depends on the column: store.ComputeStats counts distinct values in a
// map, and LOFAR's columns hold 900 to 100 000 of them. With the columns
// drawn from the seed, alloc_mb_per_click spread 19% over ten seeds: the
// seed chose the work.
func primeWarm(c *client, tenant string) (*warmSession, error) {
	n := newNav(c)
	if !n.open(tenant) || len(n.cur.Themes) < 2 {
		return nil, fmt.Errorf("priming: open failed")
	}
	t0, t1 := mainThemes(&n.cur)
	w := &warmSession{n: n, t1: t1.ID, c1: t0.Columns[0], c2: t1.Columns[0]}
	if !n.selectTheme(t0.ID) {
		return nil, fmt.Errorf("priming: select failed")
	}
	ls := n.cur.Map.leaves()
	if len(ls) < 2 {
		return nil, fmt.Errorf("priming: the map has %d regions, the cycle needs 2", len(ls))
	}
	w.p0, w.p1 = ls[0].path, ls[1].path
	if !n.zoom(w.p0, false) || !n.rollback() || !n.zoom(w.p1, false) {
		return nil, fmt.Errorf("priming: zooms failed")
	}
	w.hl = n.cur.Map.leaves()[0].path
	if !n.rollback() || !n.project(w.t1, false) || !n.rollback() {
		return nil, fmt.Errorf("priming: project failed")
	}
	n.takeDigest()
	return w, nil
}

// cycle runs one revisit cycle, or as much of it as stop allows:
//
//	zoom[p0] (hit) → highlight(c1) → map.svg → rollback → zoom[p1] (hit)
//	→ highlight(c2, path) → rollback → project(t1) (hit) → GET state →
//	rollback
//
// stop, when set, is read between clicks; an interrupted cycle leaves
// the session wherever it was (see settle). It returns false when a
// click failed.
func (w *warmSession) cycle(stop *atomic.Bool) bool {
	n := w.n
	steps := []func() bool{
		func() bool { return n.zoom(w.p0, true) },
		func() bool { _, ok := n.highlight(w.c1, nil); return ok },
		n.svg,
		n.rollback,
		func() bool { return n.zoom(w.p1, true) },
		func() bool { _, ok := n.highlight(w.c2, w.hl); return ok },
		n.rollback,
		func() bool { return n.project(w.t1, true) },
		n.state,
		n.rollback,
	}
	for _, s := range steps {
		if stop != nil && stop.Load() {
			return true
		}
		if !s() {
			return false
		}
	}
	d := n.takeDigest()
	if !w.hasFirst {
		w.first, w.hasFirst = d, true
	} else if d != w.first {
		n.c.rec.done("digest", []string{fmt.Sprintf("cycle digest %016x differs from the first cycle's %016x", d, w.first)})
	}
	return true
}

// settle rolls an interrupted cycle back to the primed state. It runs
// outside the timed window.
func (w *warmSession) settle() {
	for len(w.n.stack) > 2 {
		if !w.n.rollback() {
			return
		}
	}
	w.n.takeDigest()
}

// warmCyclesPerRound is the length of a revisit_warm round: 400 clicks.
const warmCyclesPerRound = 40

func (w *warmSession) round() bool {
	for i := 0; i < warmCyclesPerRound; i++ {
		if !w.cycle(nil) {
			return false
		}
	}
	return true
}

// coldClicks is the length of contend_mix's cold script.
const coldClicks = 4

// coldScript is contend_mix's cold tenant: open → select(t0) → zoom[p0]
// → DELETE on a fresh session.
func coldScript(c *client, tenant string) (digest uint64, ok bool) {
	n := newNav(c)
	st := &steps{rec: c.rec, total: coldClicks}
	defer st.bookSkipped()
	step := st.did
	if !step(n.open(tenant)) || len(n.cur.Themes) < 2 {
		return 0, false
	}
	t0, _ := mainThemes(&n.cur)
	if !step(n.selectTheme(t0.ID)) {
		return 0, false
	}
	if !step(n.zoom(n.cur.Map.leaves()[0].path, false)) || !step(n.closeSession()) {
		return 0, false
	}
	return n.takeDigest(), true
}

// contendRound runs one cold script while the warm tenant loops its
// cycle on the other connection, stopping after the click in flight
// when the cold script returns.
func contendRound(cold *client, warm *warmSession) (digest uint64, ok bool) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	warmOK := true
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if !warm.cycle(&stop) {
				warmOK = false
				return
			}
		}
	}()
	digest, ok = coldScript(cold, "cold")
	stop.Store(true)
	wg.Wait()
	return digest, ok && warmOK
}
