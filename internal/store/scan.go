package store

import "repro/internal/obs"

// The scan: one pass over a relation's pages, in page order, on the
// caller's goroutine. A page's candidates — an explicit ascending run
// of the row set, or the whole page — are evaluated by the batch
// kernels of kernel.go into one match byte each; the match bytes of
// every page with matches are held to the end of the pass, so the
// result is allocated once, at its final size. Scans are index-only:
// values are materialized by gathering the rows a scan selected
// (Column.Gather, ScanGather).
//
// Three operators run on it — Relation.Filter (every row), FilterLimit
// (the first limit matches) and ScanRows (a selection) — and two
// pushdowns happen at the scan source instead of above it:
//
//   - predicate: segment-backed scans apply zone-map page skips, and an
//     ascending row set narrows the scan further — pages holding no
//     candidate rows are never fetched, so a filtered selection keeps
//     its zone-map advantage;
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

// scanPlan is one scan resolved against one relation: what to match,
// page geometry, zone-map skips and metrics sink.
type scanPlan struct {
	r       Relation
	pred    Predicate // nil = every row
	rows    []int     // ascending candidates; nil = the whole relation
	limit   int       // stop after this many matches; 0 = all
	rpp     int       // rows per page
	np      int       // page count
	n       int       // relation row count
	skips   []func(pi int) bool
	metrics *ScanMetrics
}

func newScanPlan(r Relation, p Predicate, rows []int, limit int) *scanPlan {
	pl := &scanPlan{r: r, pred: p, rows: rows, limit: limit, n: r.NumRows(), rpp: defaultScanPageRows}
	if cs, ok := r.(interface{ columns() *columnSet }); ok {
		t := cs.columns()
		pl.metrics = t.scanMetrics
		if t.pageRows > 0 {
			pl.rpp = t.pageRows
			if p != nil {
				pl.skips = t.pageSkips(p)
			}
		}
	}
	pl.np = (pl.n + pl.rpp - 1) / pl.rpp
	return pl
}

// scan returns the rows of r matching p, ascending: of the candidates
// rows (strictly ascending and in range — see scannable) or of the whole
// relation when rows is nil, cut to the first limit matches when limit
// is positive. nil when nothing matched.
func scan(r Relation, p Predicate, rows []int, limit int) []int {
	it := newScanPlan(r, p, rows, limit).newRangeIter()
	var pages []pageMatch
	for {
		pm, ok := it.next()
		if !ok {
			break
		}
		pages = append(pages, pm)
	}
	it.pl.metrics.add(it.scanned, it.skipped, len(pages))
	if it.emitted == 0 {
		return nil
	}
	out := make([]int, it.emitted)
	off := 0
	for _, pm := range pages {
		pm.fill(out[off : off+pm.n])
		off += pm.n
	}
	return out
}

// scannable reports whether rows is a row set the scan accepts:
// strictly ascending and within [0, n).
func scannable(rows []int, n int) bool {
	prev := -1
	for _, i := range rows {
		if i <= prev || i >= n {
			return false
		}
		prev = i
	}
	return true
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

// rangeIter walks the plan's pages in order, producing the match bytes
// of every page that yields matches.
type rangeIter struct {
	pl               *scanPlan
	ev               evaluator
	pred             predNode
	seq              []int // the candidates of a whole page, when the scan has no row set
	pi               int
	rs               []int // remaining candidate rows
	emitted          int
	scanned, skipped int
}

func (pl *scanPlan) newRangeIter() *rangeIter {
	it := &rangeIter{pl: pl, rs: pl.rows, ev: evaluator{runCap: min(pl.rpp, routeRun)}}
	it.pred = it.ev.compile(pl.r, pl.pred)
	if pl.rows == nil {
		it.seq = make([]int, min(pl.rpp, pl.n))
	}
	return it
}

// next advances to the next page with matches, its count cut to what
// the limit still admits.
func (it *rangeIter) next() (pageMatch, bool) {
	pl := it.pl
	for it.pi < pl.np && (pl.limit <= 0 || it.emitted < pl.limit) {
		pi := it.pi
		it.pi++
		pm, hi := pageMatch{lo: pi * pl.rpp}, min((pi+1)*pl.rpp, pl.n)
		// Candidate rows of this page. The row set advances past the
		// page before any skip, so zone-map skips cannot desync it.
		if pl.rows != nil {
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
		if pl.limit > 0 {
			pm.n = min(pm.n, pl.limit-it.emitted) // limit tail
		}
		it.emitted += pm.n
		return pm, true
	}
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
// Scan-backed operators (Relation.Filter is the third, in relation.go)

// FilterLimit returns the first limit row indices matching p, in
// ascending order — Filter with limit pushdown, so the scan stops as
// soon as the quota is met instead of running to EOF (limit <= 0 keeps
// Filter semantics).
func FilterLimit(r Relation, p Predicate, limit int) []int {
	return scan(r, p, nil, limit)
}

// ScanRows is the row-set filter: the subset of rows matching p.
// Ascending row sets — every selection the engine holds — go through
// the scan, so pages outside the row set or excluded by zone maps are
// never read. Any other row set is partitioned in input order by the
// router instead.
func ScanRows(r Relation, p Predicate, rows []int) []int {
	if len(rows) == 0 {
		return nil
	}
	if !scannable(rows, r.NumRows()) {
		out, _ := PartitionRows(r, p, rows)
		return out
	}
	return scan(r, p, rows, 0)
}
