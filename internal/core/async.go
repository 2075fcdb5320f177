package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/store"
)

// ReuseLevel names how much prior work a prepared build reuses — the
// reuse ladder resolved at prepare time and surfaced in job metadata:
//
//   - ReuseMapHit: the finished map itself was cached; Run returns a
//     clone without rebuilding anything.
//   - ReuseOracleDerived: the map must be rebuilt, but the selection's
//     rows overlap the sample of a cold build whose artifact is cached,
//     so the child's sample and vectors are re-sliced out of the
//     parent's instead of drawn and fitted. The build still computes
//     its own oracle; the name predates that and stays, being wire and
//     metric-label surface.
//   - ReuseCold: nothing reusable was cached; the full pipeline runs.
type ReuseLevel string

// The reuse levels, coldest last.
const (
	ReuseMapHit        ReuseLevel = "mapHit"
	ReuseOracleDerived ReuseLevel = "oracleDerived"
	ReuseCold          ReuseLevel = "cold"
)

// MapBuild is one prepared map construction — the detachable middle of a
// navigational action, split out so the expensive clustering can run on
// a scheduler worker while the session lock stays free:
//
//	b, err := e.PrepareZoom(path...)   // cheap; under the session lock
//	m, err := b.Run(ctx, progress)     // expensive; NO lock required
//	err = e.ApplyBuild(b, m)           // cheap; under the session lock
//
// Prepare* validates the action and snapshots everything the build needs
// (selection rows, theme, accumulated condition, a child RNG's seed and
// the cache lookup: a finished map, failing that a parent artifact).
// Run touches only that snapshot, immutable Explorer state (table,
// options, metric) and the atomic scratch slot, so concurrent Runs of
// one session cannot race as long as applies are serialized — which the
// jobs pool guarantees by running a session's jobs one at a time.
// ApplyBuild refuses to fire if the navigation state moved since Prepare
// (e.g. a rollback slipped in between), so a stale build can never
// corrupt the history stack.
//
// The synchronous SelectTheme, Zoom, Project and Filter run exactly
// these three steps inline (runAndApply): every map is built by
// MapBuild.Run, and every action draws from the explorer's random stream
// once, in prepare.
type MapBuild struct {
	e      *Explorer
	action ActionKind
	detail string
	rows   *store.RowSet
	theme  Theme
	cond   store.And
	seed   int64 // of the build's random source, made by Run past a map hit
	base   *State
	key    mapKey
	hit    *Map

	// Derivation (set at prepare): reuse names the level, parent the
	// cached artifact a derived build re-slices and parentPos the
	// overlap positions it samples from. artifact is a cold build's
	// finished artifact, set by Run and cached beside its map by
	// ApplyBuild.
	reuse     ReuseLevel
	parent    *buildArtifact
	parentPos []int
	artifact  *buildArtifact
}

// PrepareSelect stages a SelectTheme build.
func (e *Explorer) PrepareSelect(themeID int) (*MapBuild, error) {
	return e.prepareTheme(ActionSelect, themeID)
}

// PrepareProject stages a Project build.
func (e *Explorer) PrepareProject(themeID int) (*MapBuild, error) {
	return e.prepareTheme(ActionProject, themeID)
}

// prepareTheme stages the build of a theme's map over the current
// selection: select and project differ only in the action they record.
func (e *Explorer) prepareTheme(action ActionKind, themeID int) (*MapBuild, error) {
	if themeID < 0 || themeID >= len(e.themes) {
		return nil, fmt.Errorf("core: no theme %d (have %d)", themeID, len(e.themes))
	}
	cur := e.State()
	return e.prepare(action,
		fmt.Sprintf("theme %d: %s", themeID, e.themes[themeID].Label()),
		cur.Rows, e.themes[themeID], cur.Condition), nil
}

// PrepareZoom stages a Zoom build into the region at path.
func (e *Explorer) PrepareZoom(path ...int) (*MapBuild, error) {
	cur := e.State()
	if cur.Map == nil {
		return nil, fmt.Errorf("core: no active map to zoom (select a theme first)")
	}
	region, err := cur.Map.Root.Find(path)
	if err != nil {
		return nil, err
	}
	if region.Count() == 0 {
		return nil, fmt.Errorf("core: region %v is empty", path)
	}
	cond := append(append(store.And(nil), cur.Condition...), region.Condition...)
	return e.prepare(ActionZoom, region.Describe(), region.RowIDs(), cur.Map.Theme, cond), nil
}

// noTheme is the theme of a filter staged before any theme was
// selected: there is no map to rebuild, so the build consults no
// cache, Run returns a nil map at once and ApplyBuild pushes a map-less
// state.
var noTheme = Theme{ID: -1}

func (b *MapBuild) mapless() bool { return b.theme.ID == noTheme.ID }

// PrepareFilter stages a Filter build: the current selection narrowed
// to the rows matching pred, mapped under the current map's theme. The
// scan runs here, before the cache lookup, because the cache key is
// over the result rows; it keeps the zone-map advantage on segment
// backings even though it runs over a selection — pages holding no
// selected rows, or excluded by the predicate's page stats, are never
// read.
func (e *Explorer) PrepareFilter(pred store.Predicate) (*MapBuild, error) {
	if pred == nil {
		return nil, fmt.Errorf("core: nil predicate")
	}
	cur := e.State()
	rows := store.ScanRows(e.table, pred, cur.Rows)
	if rows.Len() == 0 {
		return nil, fmt.Errorf("core: predicate %s matches no tuples in the selection", pred)
	}
	theme := noTheme
	if cur.Map != nil {
		theme = cur.Map.Theme
	}
	cond := append(append(store.And(nil), cur.Condition...), pred)
	return e.prepare(ActionFilter, pred.String(), rows, theme, cond), nil
}

// prepare snapshots the build inputs, draws the child RNG's seed and
// consults the cache: a hit serves the finished map; failing that, the
// cached artifact with the largest usable sample overlap backs a derived
// build. The seed is drawn on every prepare — hit, derived or cold — so
// the explorer's random stream advances identically either way and
// later navigation does not depend on the cache's contents; the RNG
// itself is made only by a Run that builds. The cache key reads the
// fingerprint rows keeps, so a selection already fingerprinted — a
// revisit, a rollback followed by the same zoom, a projection of a
// zoomed state, all handed the same set — costs no pass over its rows
// here; a filter's rows are new and pay the one pass.
func (e *Explorer) prepare(action ActionKind, detail string, rows *store.RowSet, theme Theme, cond store.And) *MapBuild {
	b := &MapBuild{
		e:      e,
		action: action,
		detail: detail,
		rows:   rows,
		theme:  theme,
		cond:   cond,
		seed:   e.rng.Int63(),
		base:   e.State(),
		reuse:  ReuseCold,
	}
	if b.mapless() || e.cache == nil {
		return b
	}
	b.key = mapKey{rows: rows.Fingerprint(), n: rows.Len(), theme: theme.ID, config: e.cfg}
	if b.hit = e.cache.get(b.key); b.hit != nil {
		b.reuse = ReuseMapHit
		return b
	}
	if e.opts.DerivedSampleMin < 0 {
		return b
	}
	parent, pos := e.cache.findDerivable(theme.ID, rows, e.derivedSampleFloor(rows))
	// A degenerate overlap (identical on every used column) must build
	// cold so prep can refit and degrade to a single region; checking
	// here keeps the counters exact even if the build is later
	// cancelled.
	if parent != nil && !constantAt(parent.vecs, pos) {
		b.parent, b.parentPos = parent, pos
		b.reuse = ReuseOracleDerived
		e.cache.derived++
	}
	return b
}

// Cached reports whether Prepare resolved the build from the zoom cache,
// in which case Run returns instantly without rebuilding oracle,
// clustering or tree.
func (b *MapBuild) Cached() bool { return b.hit != nil }

// Reuse reports how much prior work the build reuses (see ReuseLevel).
func (b *MapBuild) Reuse() ReuseLevel { return b.reuse }

// Rows returns how many tuples the build's selection holds.
func (b *MapBuild) Rows() int { return b.rows.Len() }

// Run executes the mapping pipeline on the prepared snapshot. It must
// not be called under the session lock — that is the point: ctx cancels
// the build between pipeline stages and candidate k values, and progress
// (may be nil) receives monotone fractions in [0, 1]. Derived builds
// re-slice their artifact out of the parent's here, off the lock, and
// every build that clusters computes its own oracle; the shared parent
// artifact is read-only and the explorer's scratch matrix is taken by
// one build at a time, so concurrent Runs on one explorer are safe.
func (b *MapBuild) Run(ctx context.Context, progress func(float64)) (*Map, error) {
	// Record the reuse level on the build trace, if one rides the
	// context. Run (not prepare) owns the attribute because it can still
	// demote a derivation to a cold build below.
	tr := obs.TraceFrom(ctx)
	tr.SetAttr("reuse", string(b.reuse))
	if b.mapless() {
		return nil, nil
	}
	if b.hit != nil {
		if progress != nil {
			progress(1)
		}
		// Hand out a fresh region tree, not the cached one: states must
		// never share mutable regions (annotations).
		return cloneForReuse(b.hit), nil
	}
	rng := rand.New(rand.NewSource(b.seed))
	var art *buildArtifact
	if b.parent != nil {
		sp := tr.Start("derive")
		art = b.e.deriveArtifact(b.parent, b.parentPos, rng)
		sp.End()
		if constantVectors(art.vecs) {
			// Prepare already rejected degenerate overlaps; this only
			// fires in the pathological case where the derivation's
			// subsample of a non-constant overlap came out constant.
			// Build cold like prepare would have (ApplyBuild reconciles
			// the derivation counter).
			art = nil
			b.reuse = ReuseCold
			tr.SetAttr("reuse", string(ReuseCold))
		}
	}
	m, built, err := b.e.buildMapStaged(ctx, rng, b.rows, b.theme, art, progress)
	if err != nil {
		return nil, err
	}
	if b.reuse == ReuseCold {
		// A derived artifact re-slices its parent's vectors: only a cold
		// build has one worth keeping.
		b.artifact = built
	}
	return m, nil
}

// ApplyBuild pushes the finished map as the new navigation state and
// caches it, with a cold build's artifact beside it (a noTheme build
// has no map and caches nothing). It fails if the build belongs to
// another explorer or if the navigation state changed since Prepare, so
// stale results are dropped instead of corrupting the history.
func (e *Explorer) ApplyBuild(b *MapBuild, m *Map) error {
	if b.e != e {
		return fmt.Errorf("core: build belongs to a different explorer")
	}
	if m == nil && !b.mapless() {
		return fmt.Errorf("core: nil map")
	}
	if e.State() != b.base {
		return fmt.Errorf("core: state changed since the %s build was prepared; navigate again", b.action)
	}
	if e.cache != nil && b.hit == nil && m != nil {
		if b.parent != nil && b.reuse == ReuseCold {
			// Run demoted the derivation to a cold build (degenerate
			// overlap): a plain miss, not a derived one.
			e.cache.derived--
		}
		e.cache.put(b.key, m, b.artifact)
	}
	e.push(&State{
		Action:    b.action,
		Detail:    b.detail,
		Rows:      b.rows,
		Map:       m,
		Condition: b.cond,
	})
	return nil
}

// runAndApply is the synchronous path over the prepared build.
func (e *Explorer) runAndApply(b *MapBuild) (*Map, error) {
	m, err := b.Run(context.Background(), nil)
	if err != nil {
		return nil, err
	}
	if err := e.ApplyBuild(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// ReuseStats reports the reuse-cache counters: hits, misses and — among
// the misses — how many builds derived their sample from a cached
// parent, plus occupancy and evictions. All zeros when the cache is
// disabled.
func (e *Explorer) ReuseStats() ReuseStats {
	c := e.cache
	if c == nil {
		return ReuseStats{}
	}
	return ReuseStats{Map: TierStats{
		Hits:      c.hits,
		Derived:   c.derived,
		Misses:    c.misses,
		Entries:   c.order.Len(),
		Capacity:  c.cap,
		Evictions: c.evictions,
	}}
}
