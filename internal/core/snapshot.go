package core

import (
	"encoding/json"
	"math"
)

// ThemeView, MapView and RegionView are the one wire form of themes and
// data maps: the server's state response, its export and the CLI's
// export all write them. They are plain structs, not Marshalers, so
// encoding/json writes them straight into the response buffer.
type ThemeView struct {
	ID       int      `json:"id"`
	Label    string   `json:"label"`
	Medoid   string   `json:"medoid"`
	Columns  []string `json:"columns"`
	Cohesion float64  `json:"cohesion"`
}

// MapView is a data map's wire form.
type MapView struct {
	ThemeID      int        `json:"themeId"`
	ThemeLabel   string     `json:"themeLabel"`
	K            int        `json:"k"`
	Silhouette   float64    `json:"silhouette"`
	TreeAccuracy float64    `json:"treeAccuracy"`
	SampleSize   int        `json:"sampleSize"`
	Root         RegionView `json:"root"`
}

// RegionView is a region's wire form; Annotations is absent unless the
// region was annotated.
type RegionView struct {
	Path        []int        `json:"path"`
	Condition   string       `json:"condition"`
	Count       int          `json:"count"`
	ClusterID   int          `json:"clusterId"`
	Silhouette  *float64     `json:"silhouette,omitempty"`
	Split       string       `json:"split,omitempty"`
	Annotations []string     `json:"annotations,omitempty"`
	Children    []RegionView `json:"children,omitempty"`
}

// View returns the theme's wire form.
func (t Theme) View() ThemeView {
	return ThemeView{ID: t.ID, Label: t.Label(), Medoid: t.Medoid, Columns: t.Columns, Cohesion: t.Cohesion}
}

// MapView returns the wire form of the state's map with the state's
// annotations (nil for a state with no map).
func (s *State) MapView() *MapView {
	m := s.Map
	if m == nil {
		return nil
	}
	return &MapView{
		ThemeID:      m.Theme.ID,
		ThemeLabel:   m.Theme.Label(),
		K:            m.K,
		Silhouette:   m.Silhouette,
		TreeAccuracy: m.TreeAccuracy,
		SampleSize:   m.SampleSize,
		Root:         m.Root.view(s.notes),
	}
}

func (r *Region) view(notes map[*Region][]string) RegionView {
	out := RegionView{
		Path:        r.Path,
		Condition:   r.Describe(),
		Count:       r.Count(),
		ClusterID:   r.ClusterID,
		Annotations: notes[r],
	}
	if !math.IsNaN(r.Silhouette) {
		v := r.Silhouette
		out.Silhouette = &v
	}
	if out.Split = r.split; out.Split == "" && r.Split != nil {
		out.Split = r.Split.String()
	}
	// Sized once (a leaf's is empty and, like nil, omitted).
	out.Children = make([]RegionView, len(r.Children))
	for i, c := range r.Children {
		out.Children[i] = c.view(notes)
	}
	return out
}

// Snapshot is a serializable record of an exploration session: the themes,
// every navigation state with the action that reached it and its implicit
// query, and the data maps with their annotations. It is what a Blaeu user
// takes away from a session — the provenance of an insight.
type Snapshot struct {
	Table   string          `json:"table"`
	Rows    int             `json:"rows"`
	Cols    int             `json:"cols"`
	Themes  []ThemeView     `json:"themes"`
	History []SnapshotState `json:"history"`
}

// SnapshotState records one navigation state: the action that produced
// it, inline, then its description, size, query and map.
type SnapshotState struct {
	Action
	Detail string   `json:"detail"`
	Rows   int      `json:"rows"`
	Query  string   `json:"query"`
	Map    *MapView `json:"map,omitempty"`
}

// Snapshot captures the session's current trail.
func (e *Explorer) Snapshot() *Snapshot {
	s := &Snapshot{
		Table: e.data.table.Name(),
		Rows:  e.data.table.NumRows(),
		Cols:  e.data.table.NumCols(),
	}
	for _, th := range e.themes {
		s.Themes = append(s.Themes, th.View())
	}
	for _, st := range e.states {
		s.History = append(s.History, SnapshotState{
			Action: st.Action,
			Detail: st.Detail,
			Rows:   st.Rows.Len(),
			Query:  e.queryOf(st),
			Map:    st.MapView(),
		})
	}
	return s
}

// MarshalIndentJSON renders the snapshot as pretty-printed JSON.
func (s *Snapshot) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
