// Package blaeu is the public API of the Blaeu reproduction: an
// interactive database-exploration engine based on double cluster analysis
// (Sellam, Cijvat, Koopmanschap, Kersten — "Blaeu: Mapping and Navigating
// Large Tables with Cluster Analysis", PVLDB 9(13), 2016).
//
// Blaeu guides users through large tables in two steps. It first clusters
// the data vertically into themes — groups of mutually dependent columns,
// found by partitioning a mutual-information dependency graph with PAM.
// For a chosen theme it then clusters the data horizontally into a data
// map: tuples are preprocessed, clustered with PAM/CLARA (k chosen by
// silhouette), and described by a CART decision tree so that every map
// region is an interpretable predicate such as "AverageIncome >= 22". Maps
// are navigated with four reversible actions: zoom, highlight, project and
// rollback.
//
// Both clustering passes run on every user action, so the PAM SWAP phase
// is the engine's hottest path. There is one k-medoid engine: BUILD
// seeds it, then a FasterPAM-style eager-swap loop (Schubert &
// Rousseeuw's removal-loss decomposition, O(n²) per pass instead of the
// textbook O(k·n²)) with candidate scoring spread over the free cores. The
// textbook Kaufman & Rousseeuw loop survives only as the reference the
// differential tests and the e5 experiment call directly; no option
// selects it.
//
// Distances flow through one contract (pairs, rows and subsets of an
// oracle) with two storages behind it, chosen by the engine from the
// sample size alone: a materialized matrix for small samples, a lazy
// on-demand oracle for large ones (no O(n²) allocation, byte-identical
// clusterings; see the e6 experiment). No option selects between them.
// This is what lets the sampling budget default to 5000.
//
// At the serving tiers, map builds run asynchronously: the session
// manager schedules them on a bounded worker pool (internal/jobs) with
// per-session FIFO fairness, progress reporting, cancellation and a
// zoom-aware result cache. A build's data-parallel loops (the distance
// matrix, BUILD, the SWAP blocks, CLARA's per-sample runs) fan out over
// the cores no running job holds (internal/cores), with results identical
// to sequential execution. Library users get the same
// machinery through Explorer.PrepareZoom / MapBuild.Run /
// Explorer.ApplyBuild; the plain Zoom / SelectTheme / Project run those
// three steps inline.
//
// Quickstart:
//
//	table, _ := blaeu.ReadCSVFile("countries.csv", nil)
//	ex, _ := blaeu.Open(table, blaeu.DefaultOptions())
//	for _, th := range ex.Themes() { fmt.Println(th.Label()) }
//	m, _ := ex.SelectTheme(0)
//	fmt.Print(blaeu.ASCIIMap(m, 78, 20))
//	m, _ = ex.Zoom(0)          // drill into the first region
//	h, _ := ex.Highlight("CountryName") // inspect a column
//	_ = ex.Rollback()          // every action is reversible
package blaeu

import (
	"io"

	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/store"
	"repro/internal/store/segment"
)

// Re-exported core types. See the internal packages for full method
// documentation.
type (
	// Table is an in-memory columnar table (the storage substrate).
	Table = store.Table
	// Relation is the read-only interface both storage backings satisfy:
	// in-memory Tables and out-of-core SegmentTables. Explorers run over
	// either.
	Relation = store.Relation
	// SegmentTable is a relation served from an on-disk segment file
	// through a byte-budgeted buffer pool, for datasets too large to
	// load (see internal/store/segment for the format).
	SegmentTable = store.SegmentTable
	// Column is one typed, nullable column of a Table.
	Column = store.Column
	// Explorer is an exploration session over one table.
	Explorer = core.Explorer
	// Options tunes the exploration engine (sampling budget, k ranges,
	// tree depth, preprocessing).
	Options = core.Options
	// Theme is a group of mutually dependent columns.
	Theme = core.Theme
	// Map is a data map: the hierarchical, interpretable clustering of
	// the current selection under one theme.
	Map = core.Map
	// Region is one node of a data map: Count is its size, RowIDs its
	// rows — a row set (range, bitmap or list) built the first time they
	// are read.
	Region = core.Region
	// Highlight is a read-only inspection of a column within a region.
	Highlight = core.Highlight
	// HistogramData is a binned view of a numeric column over a region.
	HistogramData = core.HistogramData
	// State is one navigation state (selection + map + implicit query).
	State = core.State
)

// CSVOptions controls CSV parsing (delimiter, null tokens).
type CSVOptions = store.CSVOptions

// DefaultOptions returns the engine defaults (sample budget 5000 — the
// paper's "few thousand", raised by the lazy oracle layer — map k in
// [2,6], description trees of depth 3).
func DefaultOptions() Options { return core.DefaultOptions() }

// Open starts an exploration session: it detects the table's themes and
// initializes the selection to the full table.
func Open(t *Table, opts Options) (*Explorer, error) { return core.NewExplorer(t, opts) }

// OpenRelation starts an exploration session over any relation —
// in-memory or segment-backed. Results are identical across backings
// on the same data and seed.
func OpenRelation(t Relation, opts Options) (*Explorer, error) { return core.NewExplorer(t, opts) }

// BuildSegment streams a CSV file into an on-disk segment file with
// memory bounded by columns × rows-per-page. Type inference matches
// ReadCSV, so segment-backed exploration reproduces in-memory results.
// It returns the number of rows written.
func BuildSegment(csvPath, segPath string, opts *store.SegmentBuildOptions) (int64, error) {
	return store.BuildSegment(csvPath, segPath, opts)
}

// OpenSegmentTable opens a segment file as a relation, caching pages in
// a buffer pool of at most pageBudget bytes.
func OpenSegmentTable(path string, pageBudget int64) (*SegmentTable, error) {
	return store.OpenSegmentTableWith(path, segment.NewPoolObs(pageBudget, nil))
}

// ReadCSV parses a CSV stream (with header) into a typed table, inferring
// column types.
func ReadCSV(r io.Reader, opts *CSVOptions) (*Table, error) { return store.ReadCSV(r, opts) }

// ReadCSVFile parses a CSV file into a typed table.
func ReadCSVFile(path string, opts *CSVOptions) (*Table, error) {
	return store.ReadCSVFile(path, opts)
}

// NewTable returns an empty table; add columns with MustAddColumn.
func NewTable(name string) *Table { return store.NewTable(name) }

// ASCIIMap renders a data map as a terminal treemap, region heights
// proportional to tuple counts (the textual analogue of paper Fig. 1b).
func ASCIIMap(m *Map, width, height int) string { return render.ASCIIMap(m, width, height) }

// ASCIIHistogram renders highlight histograms for the terminal.
func ASCIIHistogram(h *HistogramData, width int) string { return render.ASCIIHistogram(h, width) }

// ThemeList renders the theme view (paper Fig. 1a) as text.
func ThemeList(themes []Theme) string { return render.ThemeList(themes) }

// SVGMap renders a data map as a standalone SVG treemap.
func SVGMap(m *Map, width, height float64) string { return render.SVGMap(m, width, height) }
