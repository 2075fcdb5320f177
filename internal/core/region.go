package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/store"
)

// Region is one node of a data map: a subset of the current selection
// described by an interpretable predicate path (paper §2). Leaf regions
// are the clusters the user can zoom into; internal regions show the
// hierarchy of splits (Fig. 1b). A region is never copied or changed
// once its map is built: every state holding the map reads the same
// regions, and a state's annotations name them by pointer. An
// engine-built region holds its map's routing of the selection and its
// node in it: its count is known at once, its rows are built the first
// time RowIDs reads them — once per map, at most span/8 bytes — since a
// user zooms into or inspects one region of a map, not all of them; so
// are a column's statistics over them (Stats).
type Region struct {
	// Path addresses the region from the map root: Path[i] is the child
	// index taken at depth i (empty for the root).
	Path []int
	// Split is the predicate routing tuples to Children[0]; tuples
	// failing it go to Children[1]. Nil for leaves.
	Split store.Predicate
	// Condition is the conjunction of predicates from the root to this
	// region — the implicit Select query the region denotes.
	Condition store.And
	// Children are the sub-regions (nil for leaves).
	Children []*Region
	// Rows are the rows of a hand-built region (one made outside the
	// engine, as the click benchmark's layer probe does), strictly
	// ascending. The engine never sets it: read a region's rows with
	// RowIDs.
	Rows []int
	// routed and node locate an engine-built region's rows: node node of
	// its map's routing of the selection.
	routed *store.Routing
	node   int
	// ClusterID is the sample-clustering cluster this (leaf) region
	// describes (-1 for internal regions).
	ClusterID int
	// Silhouette is the mean silhouette width of the region's cluster on
	// the clustered sample (leaf regions; NaN when unavailable).
	Silhouette float64
	// desc and split are an engine-built region's Describe() and its
	// split's String(), rendered once when its map is built: a map is
	// viewed on every click that returns it, and never changes.
	desc, split string
}

// Count returns the number of selection tuples in the region — the
// quantity the map visualizes as leaf area (paper §2).
func (r *Region) Count() int {
	if r.routed != nil {
		return r.routed.Count(r.node)
	}
	return len(r.Rows)
}

// RowIDs returns the base-table rows of the selection falling in the
// region. An engine-built region's set is built on the first call and
// shared afterwards — by every state holding its map, and by the state
// a zoom into the region pushes, so its rows are collected once.
func (r *Region) RowIDs() *store.RowSet {
	if r.routed != nil {
		return r.routed.Rows(r.node)
	}
	return store.RowsOf(r.Rows)
}

// Stats returns the statistics of col — a column of the table the map
// was built over — over the region's rows. An engine-built region's are
// computed on the first call and shared afterwards, by every state
// holding its map, like its rows.
func (r *Region) Stats(col store.Column) store.ColumnStats {
	if r.routed != nil {
		return r.routed.Stats(r.node, col.Name())
	}
	return store.StatsRows(col, store.RowsOf(r.Rows))
}

// IsLeaf reports whether the region has no children.
func (r *Region) IsLeaf() bool { return len(r.Children) == 0 }

// Leaves returns the leaf regions under r, left to right.
func (r *Region) Leaves() []*Region {
	if r.IsLeaf() {
		return []*Region{r}
	}
	var out []*Region
	for _, c := range r.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Find returns the region addressed by path (child indices from r), or an
// error if the path is invalid.
func (r *Region) Find(path []int) (*Region, error) {
	cur := r
	for depth, idx := range path {
		if idx < 0 || idx >= len(cur.Children) {
			return nil, fmt.Errorf("core: region path %v invalid at depth %d (%d children)",
				path, depth, len(cur.Children))
		}
		cur = cur.Children[idx]
	}
	return cur, nil
}

// ParsePath parses the text form of a region path, comma-separated child
// indices such as "0,1" ("" is the root). An element that is not an
// integer, an empty one included, is an error.
func ParsePath(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad path element %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// Describe renders the region's condition, e.g.
// "PctEmployeesWorkingLongHours < 20 AND AverageIncome >= 22".
func (r *Region) Describe() string {
	if r.desc != "" {
		return r.desc
	}
	if len(r.Condition) == 0 {
		return "all tuples"
	}
	return r.Condition.String()
}

// RenderTree draws the region hierarchy as indented text with counts —
// the terminal analogue of the paper's treemap (Fig. 1b).
func (r *Region) RenderTree() string {
	var sb strings.Builder
	var walk func(n *Region, prefix string)
	walk = func(n *Region, prefix string) {
		label := "all tuples"
		if len(n.Condition) > 0 {
			label = n.Condition[len(n.Condition)-1].String()
		}
		marker := ""
		if n.IsLeaf() {
			marker = fmt.Sprintf("  [cluster %d]", n.ClusterID)
		}
		fmt.Fprintf(&sb, "%s%s  (n=%d)%s\n", prefix, label, n.Count(), marker)
		for _, c := range n.Children {
			walk(c, prefix+"  ")
		}
	}
	walk(r, "")
	return sb.String()
}
