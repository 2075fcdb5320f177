package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/store"
)

// ReuseLevel names how much prior work a prepared build reuses,
// resolved at prepare time and surfaced in job metadata:
//
//   - ReuseMapHit: the finished map itself was cached; Run returns it
//     without rebuilding anything.
//   - ReuseCold: the map was not cached; the full pipeline runs.
type ReuseLevel string

// The reuse levels.
const (
	ReuseMapHit ReuseLevel = "mapHit"
	ReuseCold   ReuseLevel = "cold"
)

// MapBuild is one prepared map construction — the detachable middle of a
// navigational action, split out so the expensive clustering can run on
// a scheduler worker while the session lock stays free:
//
//	b, err := e.Prepare(action)    // cheap; under the session lock
//	m, err := b.Run(ctx, progress) // expensive; NO lock required
//	err = e.ApplyBuild(b, m)       // cheap; under the session lock
//
// Prepare validates the action and snapshots everything the build needs
// (selection rows, theme, accumulated condition, a child RNG's seed and
// the cache lookup's finished map, if any).
// Run touches only that snapshot, immutable Explorer state (table,
// options, metric) and the dataset's free list of build scratch, which
// is safe for concurrent use, so concurrent Runs of
// one session cannot race as long as applies are serialized — which the
// jobs pool guarantees by running a session's jobs one at a time.
// ApplyBuild refuses to fire if the navigation state moved since Prepare
// (e.g. a rollback slipped in between), so a stale build can never
// corrupt the history stack.
//
// The synchronous SelectTheme, Zoom, Project, Filter and FilterExpr run
// exactly these three steps inline (runAndApply): every map is built by
// MapBuild.Run, and every action draws from the explorer's random stream
// once, in prepare.
type MapBuild struct {
	e     *Explorer
	next  *State // the state ApplyBuild pushes, given Run's map
	theme Theme
	seed  int64 // of the build's random source, made by Run past a map hit
	base  *State
	key   mapKey
	hit   *Map
}

// Prepare stages the build of a map-building action (see
// ActionKind.Builds): select and project map a theme over the current
// selection, zoom narrows it to a region of the current map, and filter
// to the rows matching Expr, parsed here. The state the build pushes
// records the action in its canonical form: only the argument its kind
// reads, a zoom's path as the region's own.
func (e *Explorer) Prepare(a Action) (*MapBuild, error) {
	cur := e.State()
	switch a.Kind {
	case ActionSelect, ActionProject:
		if a.Theme < 0 || a.Theme >= len(e.themes) {
			return nil, fmt.Errorf("core: no theme %d (have %d)", a.Theme, len(e.themes))
		}
		th := e.themes[a.Theme]
		return e.prepare(&State{Action: Action{Kind: a.Kind, Theme: a.Theme},
			Detail: fmt.Sprintf("theme %d: %s", a.Theme, th.Label()),
			Rows:   cur.Rows, Condition: cur.Condition}, th), nil
	case ActionZoom:
		if cur.Map == nil {
			return nil, fmt.Errorf("core: no active map to zoom (select a theme first)")
		}
		region, err := cur.Map.Root.Find(a.Path)
		if err != nil {
			return nil, err
		}
		if region.Count() == 0 {
			return nil, fmt.Errorf("core: region %v is empty", a.Path)
		}
		cond := append(append(store.And(nil), cur.Condition...), region.Condition...)
		return e.prepare(&State{Action: Action{Kind: ActionZoom, Path: region.Path},
			Detail: region.Describe(), Rows: region.RowIDs(), Condition: cond}, cur.Map.Theme), nil
	case ActionFilter:
		pred, err := store.ParsePredicate(a.Expr)
		if err != nil {
			return nil, err
		}
		return e.prepareFilter(pred)
	}
	return nil, fmt.Errorf("core: unknown action %q (want one of %v)", a.Kind, buildKinds)
}

// noTheme is the theme of a filter staged before any theme was
// selected: there is no map to rebuild, so the build consults no
// cache, Run returns a nil map at once and ApplyBuild pushes a map-less
// state.
var noTheme = Theme{ID: -1}

func (b *MapBuild) mapless() bool { return b.theme.ID == noTheme.ID }

// prepareFilter stages a Filter build: the current selection narrowed
// to the rows matching pred, mapped under the current map's theme. The
// scan runs here, before the cache lookup, because the cache key is
// over the result rows; it keeps the zone-map advantage on segment
// backings even though it runs over a selection — pages holding no
// selected rows, or excluded by the predicate's page stats, are never
// read.
func (e *Explorer) prepareFilter(pred store.Predicate) (*MapBuild, error) {
	if pred == nil {
		return nil, fmt.Errorf("core: nil predicate")
	}
	cur := e.State()
	rows := store.ScanRows(e.data.table, pred, cur.Rows)
	if rows.Len() == 0 {
		return nil, fmt.Errorf("core: predicate %s matches no tuples in the selection", pred)
	}
	theme := noTheme
	if cur.Map != nil {
		theme = cur.Map.Theme
	}
	cond := append(append(store.And(nil), cur.Condition...), pred)
	return e.prepare(&State{Action: Action{Kind: ActionFilter, Expr: store.ExactString(pred)},
		Detail: pred.String(), Rows: rows, Condition: cond}, theme), nil
}

// prepare snapshots the build inputs, draws the child RNG's seed and
// consults the cache: a hit serves the finished map, a miss builds cold.
// The seed is drawn on every prepare — hit or cold — so the explorer's
// random stream advances identically either way and later navigation
// does not depend on the cache's contents; the RNG itself is made only
// by a Run that builds. The cache key hashes the form the rows are kept
// in (store.RowSet.Fingerprint), not the rows: O(1) for a range such as
// the whole table, at most span/64 mixes for a bitmap or a list.
func (e *Explorer) prepare(next *State, theme Theme) *MapBuild {
	b := &MapBuild{e: e, next: next, theme: theme, seed: e.rng.Int63(), base: e.State()}
	if b.mapless() || e.cache == nil {
		return b
	}
	rows := next.Rows
	b.key = mapKey{rows: rows.Fingerprint(), n: rows.Len(), theme: theme.ID}
	b.hit = e.cache.get(b.key)
	return b
}

// Reuse reports how much prior work the build reuses (see ReuseLevel).
func (b *MapBuild) Reuse() ReuseLevel {
	if b.hit != nil {
		return ReuseMapHit
	}
	return ReuseCold
}

// Rows returns how many tuples the build's selection holds.
func (b *MapBuild) Rows() int { return b.next.Rows.Len() }

// Run executes the mapping pipeline on the prepared snapshot. It must
// not be called under the session lock — that is the point: ctx cancels
// the build between pipeline stages and candidate k values, and progress
// (may be nil) receives monotone fractions in [0, 1]. Every build that
// clusters takes a scratch off the dataset's free list first, which one
// build holds at a time, re-seeds its generator with the build's seed,
// and draws its sample and computes its sample table, pipeline, vectors
// and oracle in it, so concurrent Runs on one explorer, or on sessions
// of one dataset, are safe, and a warm build allocates little beyond
// the map it returns.
func (b *MapBuild) Run(ctx context.Context, progress func(float64)) (*Map, error) {
	// Record the reuse level on the build trace, if one rides the
	// context.
	tr := obs.TraceFrom(ctx)
	tr.SetAttr("reuse", string(b.Reuse()))
	if b.mapless() {
		return nil, nil
	}
	if b.hit != nil {
		if progress != nil {
			progress(1)
		}
		return b.hit, nil
	}
	// The build draws, gathers, prepares, clusters and fits in a scratch
	// off the dataset's free list, and gives it back on return, error or
	// not. A panic skips this and drops it: a later build allocates
	// afresh rather than trust storage a failed build was writing. Its
	// random source is the scratch's generator, re-seeded with the
	// build's seed: the stream a new generator on that seed starts.
	sc := b.e.data.takeScratch()
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(b.seed))
	} else {
		sc.rng.Seed(b.seed)
	}
	m, err := b.e.buildMapStaged(ctx, sc.rng, b.next.Rows, b.theme, sc, progress)
	b.e.data.putScratch(sc)
	return m, err
}

// ApplyBuild pushes the finished map as the new navigation state and
// caches it (a noTheme build has no map and caches nothing). It fails
// if the build belongs to another explorer or if the navigation state
// changed since Prepare, so stale results are dropped instead of
// corrupting the history.
func (e *Explorer) ApplyBuild(b *MapBuild, m *Map) error {
	if b.e != e {
		return fmt.Errorf("core: build belongs to a different explorer")
	}
	if m == nil && !b.mapless() {
		return fmt.Errorf("core: nil map")
	}
	if e.State() != b.base {
		return fmt.Errorf("core: state changed since the %s build was prepared; navigate again", b.next.Action.Kind)
	}
	if e.cache != nil && b.hit == nil && m != nil {
		e.cache.put(b.key, m)
	}
	b.next.Map = m
	e.push(b.next)
	return nil
}

// runAndApply is the synchronous path over a prepared build, taking
// Prepare's results as they come.
func (e *Explorer) runAndApply(b *MapBuild, err error) (*Map, error) {
	if err != nil {
		return nil, err
	}
	m, err := b.Run(context.Background(), nil)
	if err != nil {
		return nil, err
	}
	if err := e.ApplyBuild(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// ReuseStats reports the reuse-cache counters: hits and misses, plus
// occupancy and evictions. All zeros when the cache is disabled.
func (e *Explorer) ReuseStats() ReuseStats {
	c := e.cache
	if c == nil {
		return ReuseStats{}
	}
	return ReuseStats{Map: TierStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Entries:   c.order.Len(),
		Capacity:  c.cap,
		Evictions: c.evictions,
	}}
}
