package store

import (
	"fmt"

	"repro/internal/obs"
)

// Streaming batch scans: the lazy operator pipeline over both backings.
// A Scanner yields batches of matching row indices, about one page of
// rows at a time, so operators compose without materializing
// intermediates — the Volcano shape, but batch-at-a-time rather than
// row-at-a-time. Scans are index-only: values are materialized by
// gathering the rows a scan selected (Column.Gather, ScanGather).
//
// A page's candidates — an explicit ascending run of the row set, or
// the whole page — are evaluated by the batch kernels of kernel.go into
// one match byte each, so nothing is allocated per page but those
// bytes: a batch is allocated once its matches are counted, and Collect
// fills one result of the final size from the match bytes of every
// page.
//
// Two pushdowns happen at the scan source instead of above it:
//
//   - predicate: segment-backed scans apply zone-map page skips, and an
//     ascending ScanSpec.Rows set narrows the scan further — pages
//     holding no candidate rows are never fetched, so a filtered
//     selection keeps its zone-map advantage;
//   - limit: the scan stops as soon as ScanSpec.Limit matching rows
//     have been delivered, so Head-shaped calls never reach EOF.
//
// With ScanSpec.Workers > 1 the page space splits into contiguous
// ranges, one worker each; batches are reassembled by draining the
// ranges in page order, which makes the merge order-preserving and the
// output byte-identical to a sequential scan at any worker count.

// defaultScanPageRows is the batch granularity for relations without a
// native page size (in-memory tables, generic Relations).
const defaultScanPageRows = 8192

// ScanSpec configures a streaming batch scan over a Relation.
type ScanSpec struct {
	// Pred filters rows (nil = every row). On segment backings its
	// top-level conjuncts also drive zone-map page skips.
	Pred Predicate
	// Rows restricts the scan to an ascending set of row indices
	// (nil = the whole relation). Pages containing none of them are
	// skipped without being read.
	Rows []int
	// Limit stops the scan after this many matching rows (0 = all).
	Limit int
	// Workers is the parallel page-range worker count; values below 2
	// scan sequentially on the caller's goroutine.
	Workers int
}

// Batch is one unit of scan output: the matching row indices of one
// source page. Batches arrive in ascending row order and never overlap.
type Batch struct {
	Rows []int
}

// ScanMetrics holds the scan-path counters, registered once against a
// registry and attached to relations via SetScanMetrics. A nil
// *ScanMetrics is valid everywhere and counts nothing, mirroring the
// nil-safety of obs.Registry.
type ScanMetrics struct {
	pagesScanned *obs.Counter
	pagesSkipped *obs.Counter
	batches      *obs.Counter
}

// NewScanMetrics registers the scan counters (a nil registry hands out
// detached counters, so the result is always usable).
func NewScanMetrics(reg *obs.Registry) *ScanMetrics {
	return &ScanMetrics{
		pagesScanned: reg.Counter("blaeu_scan_pages_total",
			"Pages visited by streaming scans, by outcome.",
			obs.Labels{"result": "scanned"}),
		pagesSkipped: reg.Counter("blaeu_scan_pages_total",
			"Pages visited by streaming scans, by outcome.",
			obs.Labels{"result": "skipped"}),
		batches: reg.Counter("blaeu_scan_batches_total",
			"Batches emitted by streaming scans.", nil),
	}
}

func (m *ScanMetrics) add(scanned, skipped, batches int) {
	if m != nil {
		m.pagesScanned.Add(uint64(scanned))
		m.pagesSkipped.Add(uint64(skipped))
		m.batches.Add(uint64(batches))
	}
}

// scanPlan is the resolved form of a ScanSpec against one relation:
// page geometry, zone-map skips and metrics sink.
type scanPlan struct {
	r       Relation
	spec    ScanSpec
	rpp     int // rows per page (batch granularity)
	np      int // page count
	n       int // relation row count
	skips   []func(pi int) bool
	metrics *ScanMetrics
}

// Scan starts a streaming batch scan of r. Spec errors (a Rows set that
// is not strictly ascending or out of range) surface through
// Scanner.Err after Next returns false.
func Scan(r Relation, spec ScanSpec) *Scanner {
	pl, err := newScanPlan(r, spec)
	if err != nil {
		return &Scanner{err: err}
	}
	s := &Scanner{limit: spec.Limit}
	w := min(spec.Workers, pl.np)
	if w < 2 {
		s.seq = pl.newRangeIter(0, pl.np)
		return s
	}
	s.cancel = make(chan struct{})
	s.workers = make([]chan pageMatch, w)
	base, rem := pl.np/w, pl.np%w
	p0 := 0
	for wi := 0; wi < w; wi++ {
		p1 := p0 + base
		if wi < rem {
			p1++
		}
		ch := make(chan pageMatch, 2) // a page in hand while the consumer drains an earlier range
		s.workers[wi] = ch
		go func(it *rangeIter, ch chan pageMatch) {
			defer close(ch)
			defer it.flush()
			for {
				pm, ok := it.next()
				if !ok {
					return
				}
				select {
				case ch <- pm:
				case <-s.cancel:
					return
				}
			}
		}(pl.newRangeIter(p0, p1), ch)
		p0 = p1
	}
	return s
}

// Scanner pulls batches from a scan. Not safe for concurrent use; the
// consumer must either drain it or Close it so parallel workers exit.
type Scanner struct {
	seq     *rangeIter       // sequential mode
	workers []chan pageMatch // parallel mode, one channel per page range
	cur     int              // worker currently being drained
	cancel  chan struct{}
	limit   int
	emitted int
	err     error
	closed  bool
}

// Next returns the next batch; ok is false at end of scan (check Err).
func (s *Scanner) Next() (Batch, bool) {
	pm, ok := s.nextPage()
	if !ok {
		return Batch{}, false
	}
	rows := make([]int, pm.n)
	pm.fill(rows)
	return Batch{Rows: rows}, true
}

// nextPage returns the next page with matches, its count cut to what
// the limit still admits.
func (s *Scanner) nextPage() (pageMatch, bool) {
	if s.err != nil || s.closed {
		return pageMatch{}, false
	}
	if s.limit > 0 && s.emitted >= s.limit {
		s.Close()
		return pageMatch{}, false
	}
	pm, ok := s.fetch()
	if !ok {
		s.Close()
		return pageMatch{}, false
	}
	if s.limit > 0 && s.emitted+pm.n > s.limit {
		pm.n = s.limit - s.emitted // limit tail
	}
	s.emitted += pm.n
	return pm, true
}

// fetch pulls the next raw page: straight from the iterator in
// sequential mode, or from the page ranges in range order — draining
// range i completely before touching range i+1 is what makes the
// parallel merge order-preserving.
func (s *Scanner) fetch() (pageMatch, bool) {
	if s.seq != nil {
		return s.seq.next()
	}
	for s.cur < len(s.workers) {
		pm, ok := <-s.workers[s.cur]
		if ok {
			return pm, true
		}
		s.cur++
	}
	return pageMatch{}, false
}

// Err reports the first spec error; nil for a clean scan.
func (s *Scanner) Err() error { return s.err }

// Close releases the scan early: parallel workers are cancelled (and
// drained so their counters flush), the sequential iterator flushes
// its counters. Closing a finished or unstarted scanner is a no-op.
func (s *Scanner) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.seq != nil {
		s.seq.flush()
		return
	}
	close(s.cancel)
	for _, ch := range s.workers {
		for range ch {
		}
	}
}

// Collect drains the scanner into a flat slice of matching row indices
// (nil when nothing matched) and closes it. The pages' match bytes are
// held until the end of the scan, so the result is one allocation of
// its final size.
func (s *Scanner) Collect() []int {
	var pages []pageMatch
	for {
		pm, ok := s.nextPage()
		if !ok {
			break
		}
		pages = append(pages, pm)
	}
	if s.emitted == 0 {
		return nil
	}
	out := make([]int, s.emitted)
	off := 0
	for _, pm := range pages {
		pm.fill(out[off : off+pm.n])
		off += pm.n
	}
	return out
}

func newScanPlan(r Relation, spec ScanSpec) (*scanPlan, error) {
	pl := &scanPlan{r: r, spec: spec, n: r.NumRows(), rpp: defaultScanPageRows}
	if cs, ok := r.(interface{ columns() *columnSet }); ok {
		t := cs.columns()
		pl.metrics = t.scanMetrics
		if t.pageRows > 0 {
			pl.rpp = t.pageRows
			if spec.Pred != nil {
				pl.skips = t.pageSkips(spec.Pred)
			}
		}
	}
	pl.np = (pl.n + pl.rpp - 1) / pl.rpp
	if spec.Rows != nil {
		prev := -1
		for _, i := range spec.Rows {
			if i <= prev || i >= pl.n {
				return nil, fmt.Errorf("store: scan of %s: row set must be strictly ascending and within [0, %d)", r.Name(), pl.n)
			}
			prev = i
		}
	}
	return pl, nil
}

// pageMatch is the outcome of one scanned page: its candidates (cand,
// or the rows from lo on when cand is nil), one match byte per
// candidate and the number of matches wanted of it.
type pageMatch struct {
	cand []int
	lo   int
	m    []uint8
	n    int
}

// fill writes the page's first len(dst) matches into dst.
func (pm *pageMatch) fill(dst []int) {
	if pm.cand != nil {
		fillMatched(pm.cand, pm.m, dst)
	} else {
		fillMatchedSeq(pm.lo, pm.m, dst)
	}
}

// rangeIter walks one contiguous page range, producing the match bytes
// of every page that yields matches. It is the scan core shared by
// sequential scans (one iter over all pages) and parallel workers (one
// iter per range); each iter compiles the predicate for itself, because
// an evaluator keeps page cursors.
type rangeIter struct {
	pl                        *scanPlan
	ev                        evaluator
	pred                      predNode
	seq                       []int // the candidates of a whole page, when the scan has no row set
	pi, p1                    int
	rs                        []int // remaining candidate rows within the range
	emitted                   int
	scanned, skipped, batches int
	flushed                   bool
}

func (pl *scanPlan) newRangeIter(p0, p1 int) *rangeIter {
	it := &rangeIter{pl: pl, pi: p0, p1: p1, ev: evaluator{runCap: min(pl.rpp, routeRun)}}
	it.pred = it.ev.compile(pl.r, pl.spec.Pred)
	if rows := pl.spec.Rows; rows != nil {
		it.rs = rows[splitBefore(rows, p0*pl.rpp):splitBefore(rows, p1*pl.rpp)]
	} else {
		it.seq = make([]int, min(pl.rpp, pl.n))
	}
	return it
}

// next advances to the next page with matches.
func (it *rangeIter) next() (pageMatch, bool) {
	pl := it.pl
	for it.pi < it.p1 {
		if pl.spec.Limit > 0 && it.emitted >= pl.spec.Limit {
			break
		}
		pi := it.pi
		it.pi++
		pm, hi := pageMatch{lo: pi * pl.rpp}, min((pi+1)*pl.rpp, pl.n)
		// Candidate rows of this page. The row set advances past the
		// page before any skip, so zone-map skips cannot desync it.
		if pl.spec.Rows != nil {
			k := splitBefore(it.rs, hi)
			pm.cand = it.rs[:k]
			it.rs = it.rs[k:]
			if k == 0 {
				it.skipped++
				continue
			}
		}
		if it.zoneSkip(pi) {
			it.skipped++
			continue
		}
		it.scanned++
		if it.match(pi, hi-pm.lo, &pm); pm.n == 0 {
			continue
		}
		it.emitted += pm.n
		it.batches++
		return pm, true
	}
	it.flush()
	return pageMatch{}, false
}

// match evaluates the predicate over the candidates of page pi — cand,
// or its nc rows — into pm.m, a run at a time, and counts the matches
// into pm.n.
func (it *rangeIter) match(pi, nc int, pm *pageMatch) {
	cand := pm.cand
	if cand == nil {
		cand = it.seq[:nc]
		fillSeq(pm.lo, pm.lo+nc, cand)
	}
	pm.m = make([]uint8, len(cand))
	it.ev.page = pi
	for lo := 0; lo < len(cand); lo += it.ev.runCap {
		hi := min(lo+it.ev.runCap, len(cand))
		it.ev.run = cand[lo:hi]
		it.ev.eval(&it.pred, routeIdentity[:hi-lo], pm.m[lo:hi])
	}
	pm.n = countBytes(pm.m)
}

// zoneSkip applies the plan's page-exclusion tests.
func (it *rangeIter) zoneSkip(pi int) bool {
	for _, skip := range it.pl.skips {
		if skip(pi) {
			return true
		}
	}
	return false
}

// flush publishes the iter's counters (idempotent; bulk adds keep the
// atomics off the per-page path).
func (it *rangeIter) flush() {
	if it.flushed {
		return
	}
	it.flushed = true
	it.pl.metrics.add(it.scanned, it.skipped, it.batches)
}

// splitBefore returns the count of leading entries of rows below bound
// (rows ascending) — the boundary used to slice a row set at a page or
// range edge.
//
//blaeu:hot
func splitBefore(rows []int, bound int) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fillMatched writes the first len(dst) candidates whose match byte is
// set into dst; cand holds at least that many. Every candidate is
// stored and the write position advances only past a match, so the
// loop carries no data-dependent branch.
//
//blaeu:hot
func fillMatched(cand []int, m []uint8, dst []int) {
	for k, j := 0, 0; j < len(dst); k++ {
		dst[j] = cand[k]
		j += int(m[k])
	}
}

// fillMatchedSeq is fillMatched over the candidates lo, lo+1, ….
//
//blaeu:hot
func fillMatchedSeq(lo int, m []uint8, dst []int) {
	for k, j := 0, 0; j < len(dst); k++ {
		dst[j] = lo + k
		j += int(m[k])
	}
}

// ---------------------------------------------------------------------------
// Scan-backed operators

// FilterLimit returns the first limit row indices matching p, in
// ascending order — Filter with limit pushdown, so the scan stops as
// soon as the quota is met instead of running to EOF (limit <= 0 keeps
// Filter semantics).
func FilterLimit(r Relation, p Predicate, limit int) []int {
	return Scan(r, ScanSpec{Pred: p, Limit: limit}).Collect()
}

// ScanRows is the row-set filter: the subset of rows matching p.
// Ascending row sets — every selection the engine holds — go through
// the scan path, so pages outside the row set or excluded by zone maps
// are never read and workers > 1 splits the scan into parallel page
// ranges. A row set the scan contract rejects is partitioned in input
// order by the router instead.
func ScanRows(r Relation, p Predicate, rows []int, workers int) []int {
	if len(rows) == 0 {
		return nil
	}
	sc := Scan(r, ScanSpec{Pred: p, Rows: rows, Workers: workers})
	out := sc.Collect()
	if sc.Err() != nil {
		out, _ = PartitionRows(r, p, rows)
	}
	return out
}
