package store

import (
	"bytes"
	"cmp"

	"repro/internal/obs"
)

// The scan operators — Relation.Filter (every row), FilterLimit (the
// first limit matches) and ScanRows (a selection) — are the one-split
// case of Route: the predicate is the split, and its matches are the
// rows reaching node 1. So they push down what a route does: pages
// holding no candidate row are never fetched, and the compiled
// predicate skips the pages its zone maps exclude (kernel.go). The
// limit pushes down too: FilterLimit routes the relation a page, then
// twice as many rows, and so on, until it holds limit matches. Scans
// are index-only: values are materialized by gathering the rows a scan
// selected (Column.Gather, ScanGather). What is theirs alone is the
// scan counters.

// defaultScanPageRows is the page the scan counters count in for
// relations without a native page size (in-memory tables, generic
// Relations).
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

// scanPages returns the page size of r's scan counters, and the
// counters (nil when none are attached).
func scanPages(r Relation) (rpp int, m *ScanMetrics) {
	if cs, ok := r.(interface{ columns() *columnSet }); ok {
		return cmp.Or(cs.columns().pageRows, defaultScanPageRows), cs.columns().scanMetrics
	}
	return defaultScanPageRows, nil
}

// scan routes rows — a selection within the span rows of r from a page
// start — through rt, the one-split tree of a predicate compiled over r
// (scanRouter), and counts the span's pages into r's scan counters: a
// page is scanned when it holds a candidate that no zone map excludes,
// skipped otherwise, and a batch when it holds a match.
func scan(rt *router, rows *RowSet, span int) *Routing {
	rpp, metrics := scanPages(rt.rel)
	if metrics == nil {
		return rt.route(rows, nil)
	}
	scanned, batches, last, batch := 0, 0, -1, -1
	rg := rt.route(rows, func(run []int, m []uint8, excluded bool) {
		// A run is cut at the pages of the evaluator, which has none in
		// memory or when p binds no column: split it at the relation's.
		for len(run) > 0 {
			page := run[0] / rpp
			k := splitBefore(run, (page+1)*rpp)
			if page != last && !excluded {
				scanned++
			}
			if page != batch && bytes.IndexByte(m[:k], 1) >= 0 {
				batches++
				batch = page
			}
			last, run, m = page, run[k:], m[k:]
		}
	})
	metrics.pagesScanned.Add(uint64(scanned))
	metrics.pagesSkipped.Add(uint64((span+rpp-1)/rpp - scanned))
	metrics.batches.Add(uint64(batches))
	return rg
}

// scanRouter compiles the one-split tree of p (nil is TRUE) over r for
// selections of at most n rows.
func scanRouter(r Relation, p Predicate, n int) *router {
	if p == nil {
		p = True{}
	}
	return newRouter(r, SplitTree{{Split: p, No: 2}, {}, {}}, n)
}

// FilterLimit returns the first limit row indices matching p, in
// ascending order, and none when limit <= 0 — Filter with the limit
// pushed down: it routes the relation's rows a page, then twice as
// many, and so on, and stops at the range that brings the limit-th
// match. The predicate is compiled once for every range.
func FilterLimit(r Relation, p Predicate, limit int) []int {
	n := r.NumRows()
	if limit <= 0 || n == 0 {
		return nil
	}
	rpp, _ := scanPages(r)
	rt := scanRouter(r, p, n) // compiled once, for every range
	var parts []*Routing
	got := 0
	for lo, span := 0, rpp; lo < n && got < limit; lo, span = lo+span, 2*span {
		hi := min(lo+span, n)
		rg := scan(rt, &RowSet{lo: lo, hi: hi, n: hi - lo}, hi-lo)
		parts = append(parts, rg)
		got += rg.Count(1)
	}
	if got = min(got, limit); got <= 0 {
		return nil
	}
	b := newListBuilder(got)
	for _, rg := range parts {
		rg.collect(b, rg.nodes[1].lo, rg.nodes[1].hi)
	}
	return b.s.ids
}

// ScanRows is the row-set filter: the subset of rows matching p. Pages
// outside the row set or excluded by zone maps are never read.
func ScanRows(r Relation, p Predicate, rows *RowSet) *RowSet {
	return scan(scanRouter(r, p, rows.Len()), rows, r.NumRows()).Rows(1)
}
