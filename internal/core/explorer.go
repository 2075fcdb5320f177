package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/store"
)

// ActionKind identifies a navigational action (paper §2).
type ActionKind string

// The navigational actions.
const (
	ActionInit    ActionKind = "init"
	ActionSelect  ActionKind = "select-theme"
	ActionZoom    ActionKind = "zoom"
	ActionProject ActionKind = "project"
	// ActionFilter is the explicit-predicate extension (see
	// Explorer.Filter); not one of the paper's four actions.
	ActionFilter ActionKind = "filter"
)

// State is one navigation state: an active selection of rows, an active
// theme, and the data map summarizing it. Every action pushes a new state;
// rollback pops it (paper §2: "the users can always go back to a previous
// state of the system").
type State struct {
	// Action is the action that produced the state.
	Action ActionKind
	// Detail describes the action (e.g. the zoomed region's condition).
	Detail string
	// Rows is the active selection of base-table rows: the full table
	// (store.All) at first, then what store.ScanRows (filters) and
	// store.Route (regions) produce. Its fingerprint, the cache keys'
	// selection part, is computed once per set.
	Rows *store.RowSet
	// Map is the active data map (nil before the first theme selection).
	Map *Map
	// Condition accumulates the predicates of all zooms so far — the
	// implicit Select-Project query the exploration has built.
	Condition store.And
}

// Explorer is a Blaeu exploration session over one table. It is not safe
// for concurrent use; wrap it in a session manager for serving. The
// exception is MapBuild.Run, which only reads immutable fields and the
// atomic scratch slot, and may execute on a scheduler worker while the
// owner's lock is released (see MapBuild).
type Explorer struct {
	table store.Relation
	opts  Options
	// rng is the session stream. Only detectThemes and prepare (which
	// seeds each build from it) draw from it — inspections never do, so
	// reads cannot change the next map.
	rng    *rand.Rand
	metric stats.Distance
	graph  *graph.Graph
	themes []Theme
	states []*State // states[len-1] is current

	// cache is the zoom-aware map cache, whose cold entries also hold
	// their builds' artifacts for derivation (nil when disabled); cfg is
	// the build-relevant options fingerprint baked into its keys.
	cache *mapCache
	cfg   uint64

	// scratch holds the last build's distance matrix once the build is
	// done with it, so the next build computes its own on that storage
	// instead of allocating (see oracleStage). A session's builds are
	// serialized, so one slot serves them all; one per explorer, not per
	// process, so a closed session's matrix goes with it.
	scratch atomic.Pointer[cluster.DistMatrix]
}

// NewExplorer opens an exploration session: it detects the themes of the
// table and initializes the state to the full selection. The relation
// may be an in-memory *store.Table or a segment-backed
// *store.SegmentTable — the pipeline samples, filters and gathers
// through the Relation seam either way.
func NewExplorer(t store.Relation, opts Options) (*Explorer, error) {
	opts.defaults()
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("core: table %q is empty", t.Name())
	}
	e := &Explorer{table: t, opts: opts, rng: opts.newRNG(), metric: stats.Euclidean{}}
	if opts.MapCacheSize > 0 {
		e.cache = newMapCache(opts.MapCacheSize)
		e.cfg = optionsFingerprint(opts)
	}
	if err := e.detectThemes(); err != nil {
		return nil, err
	}
	e.states = []*State{{Action: ActionInit, Detail: "full table", Rows: store.All(t.NumRows())}}
	return e, nil
}

// Table returns the underlying relation.
func (e *Explorer) Table() store.Relation { return e.table }

// Options returns the effective engine options (defaults applied).
func (e *Explorer) Options() Options { return e.opts }

// Themes returns the detected themes, most cohesive first (Fig. 1a).
func (e *Explorer) Themes() []Theme { return e.themes }

// DependencyGraph returns the dependency graph themes were derived from
// (Fig. 2).
func (e *Explorer) DependencyGraph() *graph.Graph { return e.graph }

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
func (e *Explorer) Selection() *store.Table { return e.table.Gather(e.State().Rows.AppendTo(nil)) }

// Query renders the implicit Select-Project query of the current state,
// e.g. `SELECT <theme columns> FROM t WHERE hours < 20 AND income >= 22`.
// The string is valid input for ExecuteQuery / store.RunSQL.
func (e *Explorer) Query() string { return e.queryOf(e.State()) }

// queryOf renders the implicit query of any state, current or not.
func (e *Explorer) queryOf(s *State) string {
	q := &store.Query{Table: e.table.Name()}
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
	if len(e.states) > e.opts.MaxHistory {
		// Drop the oldest non-initial state.
		copy(e.states[1:], e.states[2:])
		e.states = e.states[:len(e.states)-1]
	}
}

// SelectTheme builds (and activates) the data map of the given theme over
// the current selection — the first navigational step of §2. It runs the
// prepare → run → apply path of MapBuild inline; PrepareSelect is the
// asynchronous counterpart.
func (e *Explorer) SelectTheme(themeID int) (*Map, error) {
	b, err := e.PrepareSelect(themeID)
	if err != nil {
		return nil, err
	}
	return e.runAndApply(b)
}

// Zoom drills into the region at the given path of the current map: the
// selection narrows to the region's tuples and a fresh map is built on
// them with the same theme (paper §2, Fig. 1c). Revisited selections are
// served from the zoom cache (see MapBuild.Cached); PrepareZoom is the
// asynchronous counterpart.
func (e *Explorer) Zoom(path ...int) (*Map, error) {
	b, err := e.PrepareZoom(path...)
	if err != nil {
		return nil, err
	}
	return e.runAndApply(b)
}

// Project re-maps the current selection with another theme's columns,
// keeping the tuples (paper §2, Fig. 1d): an alternative "aspect" of the
// same data. PrepareProject is the asynchronous counterpart.
func (e *Explorer) Project(themeID int) (*Map, error) {
	b, err := e.PrepareProject(themeID)
	if err != nil {
		return nil, err
	}
	return e.runAndApply(b)
}

// ExecuteQuery parses and runs the current implicit query against the
// base table, returning its result. The paper's point is that navigation
// *writes queries*: this closes the loop by making the written query
// executable. The result holds the same tuples as Selection(), projected
// onto the active theme's columns.
func (e *Explorer) ExecuteQuery() (*store.Table, error) {
	return store.RunSQL(e.Query(), store.MapCatalog{e.table.Name(): e.table})
}

// RunSQL executes an arbitrary Select-Project query against the base
// table (the escape hatch for users who outgrow the quantized query
// space).
func (e *Explorer) RunSQL(query string) (*store.Table, error) {
	return store.RunSQL(query, store.MapCatalog{e.table.Name(): e.table})
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
