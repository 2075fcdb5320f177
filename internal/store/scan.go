package store

import "repro/internal/obs"

// The scan: one pass over a row set's pages, in page order, on the
// caller's goroutine. The candidates of a page — the set's run on it
// (RowSet.runs) — are evaluated by the batch kernels of kernel.go into
// one match byte each; the matches of every run that has some are held
// to the end of the pass as one bit per candidate, with the number, the
// first and the last of the matches, so the result is allocated once,
// at its final size and form, and written by a second walk over the
// set's runs. Scans are index-only: values are materialized by
// gathering the rows a scan selected (Column.Gather, ScanGather).
//
// Three operators run on it — Relation.Filter (every row), FilterLimit
// (the first limit matches) and ScanRows (a selection) — and two
// pushdowns happen at the scan source instead of above it:
//
//   - predicate: segment-backed scans apply zone-map page skips, and a
//     row set narrows the scan further — pages holding no candidate
//     rows are never fetched, so a filtered selection keeps its
//     zone-map advantage;
//   - limit: the scan stops at the page that delivers the limit-th
//     match, so Head-shaped calls never reach EOF.

// defaultScanPageRows is the scan granularity for relations without a
// native page size (in-memory tables, generic Relations).
const defaultScanPageRows = 8192

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
			"Pages visited by scans, by outcome.",
			obs.Labels{"result": "scanned"}),
		pagesSkipped: reg.Counter("blaeu_scan_pages_total",
			"Pages visited by scans, by outcome.",
			obs.Labels{"result": "skipped"}),
		batches: reg.Counter("blaeu_scan_batches_total",
			"Pages that yielded matches to a scan.", nil),
	}
}

func (m *ScanMetrics) add(scanned, skipped, batches int) {
	if m != nil {
		m.pagesScanned.Add(uint64(scanned))
		m.pagesSkipped.Add(uint64(skipped))
		m.batches.Add(uint64(batches))
	}
}

// scanMatches is the outcome of a scan's pass: the runs of the row set
// that hold matches, and how many matches there are and where the first
// and the last lie.
type scanMatches struct {
	rows        *RowSet
	runCap, rpp int // how the pass cut rows into runs
	kept        []runMatch
	count       int
	first, last int
}

// runMatch is one run with matches: its position in the row set, one
// match bit per row of it and how many are set.
type runMatch struct {
	off, n int
	bits   []uint64
}

// scan evaluates p over the candidate rows of r page by page, cut to
// the first limit matches when limit is positive.
func scan(r Relation, p Predicate, rows *RowSet, limit int) *scanMatches {
	rpp, n := defaultScanPageRows, r.NumRows()
	var skips []func(pi int) bool
	var metrics *ScanMetrics
	if cs, ok := r.(interface{ columns() *columnSet }); ok {
		t := cs.columns()
		metrics = t.scanMetrics
		if t.pageRows > 0 {
			rpp = t.pageRows
			if p != nil {
				skips = t.pageSkips(p)
			}
		}
	}
	sm := &scanMatches{rows: rows, runCap: min(rpp, routeRun), rpp: rpp}
	ev := evaluator{runCap: sm.runCap}
	pred := ev.compile(r, p)
	m := make([]uint8, min(sm.runCap, rows.Len()))
	// Every page up to the one that meets the limit is accounted once:
	// skipped when it holds no candidate or a zone map excludes it,
	// scanned otherwise. next is the first page not yet accounted.
	next, skip, batch := 0, false, -1
	scanned, skipped, batches := 0, 0, 0
	full := func() bool { return limit > 0 && sm.count >= limit }
	rows.runs(sm.runCap, rpp, func(off, page int, run []int) bool {
		if full() {
			return false
		}
		if page >= next {
			skipped += page - next
			next, skip = page+1, false
			for _, f := range skips {
				skip = skip || f(page)
			}
			if skip {
				skipped++
			} else {
				scanned++
			}
		}
		if skip {
			return true
		}
		ev.page, ev.run = page, run
		mr := m[:len(run)]
		ev.eval(&pred, routeIdentity[:len(run)], mr)
		k := countBytes(mr)
		if k == 0 {
			return true
		}
		if page != batch {
			batches++
			batch = page
		}
		if sm.count == 0 {
			sm.first = run[firstSet(mr)]
		}
		if limit > 0 {
			// The run keeps all its match bits: only FilterLimit's list
			// reads a cut run, and it takes the first k.
			k = min(k, limit-sm.count)
		}
		sm.last = run[lastSet(mr)] // read by ScanRows, which has no limit
		km := runMatch{off: off, n: k, bits: make([]uint64, bitmapWords(len(mr)))}
		packBits(km.bits, mr)
		sm.kept = append(sm.kept, km)
		sm.count += k
		return true
	})
	if !full() {
		skipped += (n+rpp-1)/rpp - next
	}
	metrics.add(scanned, skipped, batches)
	return sm
}

// fill writes the matches into b, walking the row set's runs again up to
// the last run with matches.
func (sm *scanMatches) fill(b *setBuilder) {
	if b.done() {
		return
	}
	j, m := 0, make([]uint8, min(sm.runCap, sm.rows.Len()))
	sm.rows.runs(sm.runCap, sm.rpp, func(off, _ int, run []int) bool {
		if km := &sm.kept[j]; km.off == off {
			mr := m[:len(run)]
			unpackBits(mr, km.bits)
			b.add(run, mr, km.n)
			j++
		}
		return j < len(sm.kept)
	})
}

// set returns the matches as a row set.
func (sm *scanMatches) set() *RowSet {
	if sm.count == 0 {
		return &RowSet{}
	}
	b := newSetBuilder(sm.count, sm.first, sm.last+1)
	sm.fill(b)
	return b.s
}

// ints returns the matches as an ascending list, nil when nothing
// matched.
func (sm *scanMatches) ints() []int {
	if sm.count == 0 {
		return nil
	}
	b := newListBuilder(sm.count)
	sm.fill(b)
	return b.s.ids
}

// splitBefore returns the count of leading entries of rows below bound
// (rows ascending) — the boundary used to slice a row set at a page
// edge.
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

// firstSet returns the index of the first 1 in m, which holds one.
//
//blaeu:hot
func firstSet(m []uint8) int {
	k := 0
	for m[k] == 0 {
		k++
	}
	return k
}

// lastSet returns the index of the last 1 in m, which holds one.
//
//blaeu:hot
func lastSet(m []uint8) int {
	k := len(m) - 1
	for m[k] == 0 {
		k--
	}
	return k
}

// packBits sets bit k of bits to m[k], a 0 or 1; bits starts zeroed.
//
//blaeu:hot
func packBits(bits []uint64, m []uint8) {
	for k, b := range m {
		bits[k>>6] |= uint64(b) << (uint(k) & 63)
	}
}

// unpackBits sets m[k] to bit k of bits.
//
//blaeu:hot
func unpackBits(m []uint8, bits []uint64) {
	for k := range m {
		m[k] = uint8(bits[k>>6] >> (uint(k) & 63) & 1)
	}
}

// ---------------------------------------------------------------------------
// Scan-backed operators (Relation.Filter is the third, in relation.go)

// FilterLimit returns the first limit row indices matching p, in
// ascending order — Filter with limit pushdown, so the scan stops as
// soon as the quota is met instead of running to EOF (limit <= 0 keeps
// Filter semantics).
func FilterLimit(r Relation, p Predicate, limit int) []int {
	return scan(r, p, All(r.NumRows()), limit).ints()
}

// ScanRows is the row-set filter: the subset of rows matching p. Pages
// outside the row set or excluded by zone maps are never read.
func ScanRows(r Relation, p Predicate, rows *RowSet) *RowSet {
	if rows.Len() == 0 {
		return rows
	}
	return scan(r, p, rows, 0).set()
}
