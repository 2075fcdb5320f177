package core

import (
	"encoding/json"
	"math"
)

// Snapshot is a serializable record of an exploration session: the themes,
// every navigation state with its implicit query, and the data maps with
// their annotations. It is what a Blaeu user takes away from a session —
// the provenance of an insight.
type Snapshot struct {
	Table   string          `json:"table"`
	Rows    int             `json:"rows"`
	Cols    int             `json:"cols"`
	Themes  []SnapshotTheme `json:"themes"`
	History []SnapshotState `json:"history"`
}

// SnapshotTheme summarizes one theme.
type SnapshotTheme struct {
	ID       int      `json:"id"`
	Columns  []string `json:"columns"`
	Medoid   string   `json:"medoid"`
	Cohesion float64  `json:"cohesion"`
}

// SnapshotState records one navigation state.
type SnapshotState struct {
	Action string       `json:"action"`
	Detail string       `json:"detail"`
	Rows   int          `json:"rows"`
	Query  string       `json:"query"`
	Map    *SnapshotMap `json:"map,omitempty"`
}

// SnapshotMap records a data map.
type SnapshotMap struct {
	ThemeID      int            `json:"themeId"`
	Columns      []string       `json:"columns"`
	K            int            `json:"k"`
	Silhouette   float64        `json:"silhouette"`
	TreeAccuracy float64        `json:"treeAccuracy"`
	SampleSize   int            `json:"sampleSize"`
	Root         SnapshotRegion `json:"root"`
}

// SnapshotRegion records one region of a map.
type SnapshotRegion struct {
	Condition   string           `json:"condition"`
	Count       int              `json:"count"`
	ClusterID   int              `json:"clusterId"`
	Silhouette  *float64         `json:"silhouette,omitempty"`
	Annotations []string         `json:"annotations,omitempty"`
	Children    []SnapshotRegion `json:"children,omitempty"`
}

// Snapshot captures the session's current trail.
func (e *Explorer) Snapshot() *Snapshot {
	s := &Snapshot{
		Table: e.table.Name(),
		Rows:  e.table.NumRows(),
		Cols:  e.table.NumCols(),
	}
	for _, th := range e.themes {
		s.Themes = append(s.Themes, SnapshotTheme{
			ID: th.ID, Columns: th.Columns, Medoid: th.Medoid, Cohesion: th.Cohesion,
		})
	}
	for _, st := range e.states {
		ss := SnapshotState{
			Action: string(st.Action),
			Detail: st.Detail,
			Rows:   st.Rows.Len(),
			Query:  e.queryOf(st),
		}
		if st.Map != nil {
			ss.Map = snapshotMap(st.Map)
		}
		s.History = append(s.History, ss)
	}
	return s
}

func snapshotMap(m *Map) *SnapshotMap {
	return &SnapshotMap{
		ThemeID:      m.Theme.ID,
		Columns:      m.Theme.Columns,
		K:            m.K,
		Silhouette:   m.Silhouette,
		TreeAccuracy: m.TreeAccuracy,
		SampleSize:   m.SampleSize,
		Root:         snapshotRegion(m.Root),
	}
}

func snapshotRegion(r *Region) SnapshotRegion {
	out := SnapshotRegion{
		Condition:   r.Describe(),
		Count:       r.Count(),
		ClusterID:   r.ClusterID,
		Annotations: r.Annotations,
	}
	if !math.IsNaN(r.Silhouette) {
		v := r.Silhouette
		out.Silhouette = &v
	}
	for _, c := range r.Children {
		out.Children = append(out.Children, snapshotRegion(c))
	}
	return out
}

// MarshalIndentJSON renders the snapshot as pretty-printed JSON.
func (s *Snapshot) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
