package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/cores"
	"repro/internal/graph"
	"repro/internal/prep"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tree"
)

// ActionKind identifies a navigational action (paper §2). Its values
// are the wire names: the server's routes and the job body's "action".
type ActionKind string

// The navigational actions.
const (
	ActionInit    ActionKind = "init"
	ActionSelect  ActionKind = "select"
	ActionZoom    ActionKind = "zoom"
	ActionProject ActionKind = "project"
	// ActionFilter is the explicit-predicate extension (see
	// Explorer.Filter); not one of the paper's four actions.
	ActionFilter ActionKind = "filter"
)

// buildKinds are the actions that build a map, the ones Prepare takes.
var buildKinds = []ActionKind{ActionSelect, ActionZoom, ActionProject, ActionFilter}

// BuildKinds returns the map-building actions.
func BuildKinds() []ActionKind { return slices.Clone(buildKinds) }

// Builds reports whether the kind builds a map, so Prepare takes it.
func (k ActionKind) Builds() bool { return slices.Contains(buildKinds, k) }

// Action is one navigational action and its argument: Theme for select
// and project, Path (the region's, from the map root) for zoom, Expr (a
// SQL-style predicate) for filter. Its JSON form is the body of the
// server's job and action routes.
type Action struct {
	Kind  ActionKind `json:"action"`
	Path  []int      `json:"path,omitempty"`
	Theme int        `json:"theme,omitempty"`
	Expr  string     `json:"expr,omitempty"`
}

// State is one navigation state: an active selection of rows, an active
// theme, and the data map summarizing it. Every action pushes a new state;
// rollback pops it (paper §2: "the users can always go back to a previous
// state of the system").
type State struct {
	// Action is the action that produced the state.
	Action Action
	// Detail describes the action (e.g. the zoomed region's condition).
	Detail string
	// Rows is the active selection of base-table rows: the full table
	// (store.All) at first, then what store.ScanRows (filters) and
	// store.Route (regions) produce, each in its smallest form, so its
	// fingerprint, the cache keys' selection part, names the set.
	Rows *store.RowSet
	// Map is the active data map (nil before the first theme selection).
	Map *Map
	// Condition accumulates the predicates of all zooms so far — the
	// implicit Select-Project query the exploration has built.
	Condition store.And
	// notes are the annotations of Map's regions (Explorer.Annotate):
	// they belong to this state, so a map shared with other states stays
	// as it was built.
	notes map[*Region][]string
}

// Dataset is the per-table half of an exploration: the relation, the
// engine options (defaults applied), the dependency graph over its
// clusterable columns (Fig. 2) and the themes partitioned from it
// (Fig. 1a). It is immutable once built, and every session opened on it
// (Open) shares its options, graph and themes read-only.
// Its one mutable part is build scratch: the distance matrices, sample
// and vector slabs its sessions' finished builds are done with.
type Dataset struct {
	table  store.Relation
	opts   Options
	graph  *graph.Graph
	themes []Theme
	// draws is how many values detection took from the seed's stream;
	// Open starts each session's stream past them.
	draws int

	// spent holds the scratch finished builds are done with, so that a
	// later build of any session works on that storage instead of
	// allocating (see MapBuild.Run). It is a free list, not one slot per
	// session: at most cores.Width() builds run at once (a job worker
	// holds a core), so that many scratches per dataset serve every
	// concurrent build, where one per session grew with the sessions
	// open. A session's first map reuses what an earlier session paid
	// for, and a closed session leaves its scratch to them until
	// Release.
	spent chan *buildScratch
}

// buildScratch is the storage a build works in and leaves behind:
//   - rng, the build's generator, re-seeded by MapBuild.Run with the
//     build's seed;
//   - ids and taken, the sample draw's positions (then rows) and its
//     taken set (store.SampleIndicesInto);
//   - sample, the gathered sample table, refilled: its name index,
//     column list and float column headers with their null-bitmap
//     words (store.GatherInto), and floats, the slab its float columns
//     are windows of;
//   - pipe, the preprocessing pipeline refitted on the sample
//     (prep.Pipeline.Refit), and vecs and vecSlab, the headers and slab
//     the sample's vectors were transformed into (one Dim-capped window
//     of vecSlab per sampled row);
//   - cluster, the buffers its clustering swept in (cluster.Scratch):
//     every matrix it read — the exact path's, nil until a build
//     materializes one, and each CLARA sample's and Monte-Carlo round's
//     — SWAP's and BUILD's state, the row and block buffers and the
//     fan-outs' task state, the rounds' ids and labels, the silhouette
//     kernel's buffers and the labels of the k being scored and of the
//     best;
//   - tree, the buffers its description tree was fitted in
//     (tree.Scratch): the sample's row ids presorted per numeric
//     feature, plus one list in row order (4 B a row each), a side byte
//     per row, and the presort's and partition's temps.
//
// The map a build returns references none of them — the sample, the
// table, the pipeline, the vectors and the clustering die with the
// build, the tree holds only its nodes — so the next build may
// overwrite them all.
type buildScratch struct {
	rng     *rand.Rand
	ids     []int
	taken   []uint64
	sample  store.Table
	floats  []float64
	pipe    prep.Pipeline
	vecs    [][]float64
	vecSlab []float64
	cluster cluster.Scratch
	tree    tree.Scratch
}

// NewDataset detects the themes of the table, an in-memory *store.Table
// or a segment-backed *store.SegmentTable.
func NewDataset(t store.Relation, opts Options) (*Dataset, error) {
	opts.defaults()
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("core: table %q is empty", t.Name())
	}
	src := &countingSource{Source64: opts.newRNG()}
	g, themes, err := detectThemes(t, opts.DependencySampleRows, rand.New(src))
	if err != nil {
		return nil, err
	}
	return &Dataset{table: t, opts: opts, graph: g, themes: themes, draws: src.n,
		spent: make(chan *buildScratch, cores.Width())}, nil
}

// takeScratch returns a spent scratch off the free list, or an empty
// one when none is free. The scratch is the caller's alone until it
// puts it back.
func (d *Dataset) takeScratch() *buildScratch {
	select {
	case sc := <-d.spent:
		return sc
	default:
		return &buildScratch{}
	}
}

// putScratch returns a scratch to the free list, or drops it when the
// list is full.
func (d *Dataset) putScratch(sc *buildScratch) {
	select {
	case d.spent <- sc:
	default:
	}
}

// Release drops the dataset's spent scratch, for a dataset no session
// is open on: the next build allocates its own. A build still running
// returns its scratch afterwards.
func (d *Dataset) Release() {
	for {
		select {
		case <-d.spent:
		default:
			return
		}
	}
}

// Open opens an exploration session on the dataset, at the full
// selection. The session runs on the dataset's options: every session
// on one table shares them.
func (d *Dataset) Open() *Explorer {
	// The session stream continues where detection left the seed's
	// stream, so a session's n-th build draws the seed it drew when
	// every open detected themes itself. ROADMAP item 2's seed fix
	// deletes this skip together with e.rng.
	rng := d.opts.newRNG()
	for range d.draws {
		rng.Uint64()
	}
	e := &Explorer{data: d, rng: rng, metric: stats.Euclidean{}, themes: d.themes}
	if d.opts.MapCacheSize > 0 {
		e.cache = newMapCache(d.opts.MapCacheSize)
	}
	e.states = []*State{{Action: Action{Kind: ActionInit}, Detail: "full table", Rows: store.All(d.table.NumRows())}}
	return e
}

// Explorer is a Blaeu exploration session over one table. It is not safe
// for concurrent use; wrap it in a session manager for serving. The
// exception is MapBuild.Run, which only reads immutable fields and the
// dataset's free list of build scratch, and may execute on a scheduler
// worker while the owner's lock is released (see MapBuild).
type Explorer struct {
	// data is the dataset the session was opened on: its relation,
	// options, dependency graph and build scratch.
	data *Dataset
	// rng is the session stream, started past theme detection's draws
	// (see Dataset.Open). Only prepare (which seeds each build from it)
	// draws from it — inspections never do, so reads cannot change the
	// next map.
	rng    *rand.Rand
	metric stats.Distance
	themes []Theme
	states []*State // states[len-1] is current

	// cache is the zoom-aware map cache of finished maps (nil when
	// disabled).
	cache *mapCache
}

// NewExplorer opens an exploration session on a Dataset of its own.
// Sessions that share a table open on one Dataset instead.
func NewExplorer(t store.Relation, opts Options) (*Explorer, error) {
	d, err := NewDataset(t, opts)
	if err != nil {
		return nil, err
	}
	return d.Open(), nil
}

// Table returns the underlying relation.
func (e *Explorer) Table() store.Relation { return e.data.table }

// Options returns the effective engine options (defaults applied): the
// dataset's, which every session on it shares.
func (e *Explorer) Options() Options { return e.data.opts }

// Themes returns the detected themes, most cohesive first (Fig. 1a),
// then the session's own AddTheme themes. The detected ones are the
// Dataset's, shared by every session on it: read-only.
func (e *Explorer) Themes() []Theme { return e.themes }

// DependencyGraph returns the dependency graph themes were derived from
// (Fig. 2). It is the Dataset's, shared by every session on it:
// read-only.
func (e *Explorer) DependencyGraph() *graph.Graph { return e.data.graph }

// State returns the current navigation state.
func (e *Explorer) State() *State { return e.states[len(e.states)-1] }

// History returns the action trail from the initial state to the current
// one.
func (e *Explorer) History() []*State {
	out := make([]*State, len(e.states))
	copy(out, e.states)
	return out
}

// CurrentMap returns the active data map, or nil before the first theme
// selection.
func (e *Explorer) CurrentMap() *Map { return e.State().Map }

// Selection materializes the current selection as a table.
func (e *Explorer) Selection() *store.Table { return e.data.table.Gather(e.State().Rows.AppendTo(nil)) }

// Query renders the implicit Select-Project query of the current state,
// e.g. `SELECT <theme columns> FROM t WHERE hours < 20 AND income >= 22`.
// The string is valid input for ExecuteQuery / store.RunSQL.
func (e *Explorer) Query() string { return e.queryOf(e.State()) }

// queryOf renders the implicit query of any state, current or not.
func (e *Explorer) queryOf(s *State) string {
	q := &store.Query{Table: e.data.table.Name()}
	if s.Map != nil {
		q.Columns = s.Map.Theme.Columns
	}
	if len(s.Condition) > 0 {
		q.Where = s.Condition
	}
	return q.String()
}

func (e *Explorer) push(s *State) {
	e.states = append(e.states, s)
	if len(e.states) > historyLimit {
		// Drop the oldest non-initial state.
		copy(e.states[1:], e.states[2:])
		e.states = e.states[:len(e.states)-1]
	}
}

// SelectTheme builds (and activates) the data map of the given theme over
// the current selection — the first navigational step of §2. It runs the
// prepare → run → apply path of MapBuild inline; Prepare is the
// asynchronous counterpart.
func (e *Explorer) SelectTheme(themeID int) (*Map, error) {
	return e.runAndApply(e.Prepare(Action{Kind: ActionSelect, Theme: themeID}))
}

// Zoom drills into the region at the given path of the current map: the
// selection narrows to the region's tuples and a fresh map is built on
// them with the same theme (paper §2, Fig. 1c). A revisited selection
// is served from the session's map cache (see Prepare).
func (e *Explorer) Zoom(path ...int) (*Map, error) {
	return e.runAndApply(e.Prepare(Action{Kind: ActionZoom, Path: path}))
}

// Project re-maps the current selection with another theme's columns,
// keeping the tuples (paper §2, Fig. 1d): an alternative "aspect" of the
// same data.
func (e *Explorer) Project(themeID int) (*Map, error) {
	return e.runAndApply(e.Prepare(Action{Kind: ActionProject, Theme: themeID}))
}

// ExecuteQuery parses and runs the current implicit query against the
// base table, returning its result. The paper's point is that navigation
// *writes queries*: this closes the loop by making the written query
// executable. The result holds the same tuples as Selection(), projected
// onto the active theme's columns.
func (e *Explorer) ExecuteQuery() (*store.Table, error) {
	return store.RunSQL(e.Query(), store.MapCatalog{e.data.table.Name(): e.data.table})
}

// RunSQL executes an arbitrary Select-Project query against the base
// table (the escape hatch for users who outgrow the quantized query
// space).
func (e *Explorer) RunSQL(query string) (*store.Table, error) {
	return store.RunSQL(query, store.MapCatalog{e.data.table.Name(): e.data.table})
}

// Rollback reverts to the previous state (paper §2: every action is
// reversible).
func (e *Explorer) Rollback() error {
	if len(e.states) <= 1 {
		return fmt.Errorf("core: nothing to roll back")
	}
	e.states = e.states[:len(e.states)-1]
	return nil
}
