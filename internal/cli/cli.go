// Package cli implements the interactive terminal explorer behind the
// blaeu-cli command: a REPL over one core.Explorer that drives the theme
// view, the map view and the navigational actions. It is factored out of
// the command so the full command surface is unit-testable against
// scripted input.
package cli

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/store"
)

// REPL is an interactive session bound to input/output streams.
type REPL struct {
	explorer *core.Explorer
	in       *bufio.Scanner
	out      io.Writer
	// Prompt is printed before each command (default "blaeu> ").
	Prompt string
	// MapWidth/MapHeight size the ASCII treemap (defaults 78×18).
	MapWidth, MapHeight int
}

// New builds a REPL over an explorer.
func New(e *core.Explorer, in io.Reader, out io.Writer) *REPL {
	return &REPL{
		explorer:  e,
		in:        bufio.NewScanner(in),
		out:       out,
		Prompt:    "blaeu> ",
		MapWidth:  78,
		MapHeight: 18,
	}
}

// Run reads commands until EOF or "quit". It never returns an error for
// bad user input — errors are printed and the loop continues.
func (r *REPL) Run() {
	fmt.Fprint(r.out, render.ThemeList(r.explorer.Themes()))
	fmt.Fprintln(r.out, `Type "help" for commands.`)
	for {
		fmt.Fprint(r.out, r.Prompt)
		if !r.in.Scan() {
			fmt.Fprintln(r.out)
			return
		}
		line := strings.TrimSpace(r.in.Text())
		if line == "" {
			continue
		}
		if !r.Execute(line) {
			return
		}
	}
}

// Execute runs one command line; it returns false when the session should
// end.
func (r *REPL) Execute(line string) bool {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	e := r.explorer
	switch cmd {
	case "quit", "exit", "q":
		return false
	case "help":
		fmt.Fprintln(r.out, "commands:")
		for _, h := range [][2]string{
			{"themes", "list themes (the theme view)"},
			{"graph [minw]", "show the dependency graph (Fig. 2 view)"},
			{"map N", "build the data map of theme N"},
			{"theme a,b,c", "curate a custom theme from columns"},
			{"zoom P[,P...]", "drill into the region at path P"},
			{"highlight COL [P]", "inspect a column, optionally inside region P"},
			{"hist COL [P]", "histogram of a numeric column"},
			{"scatter X Y [P]", "bivariate view of two numeric columns"},
			{"annotate P text", "attach a note to region P"},
			{"filter EXPR", "narrow the selection with a predicate (extension)"},
			{"project N", "re-map the selection with theme N"},
			{"rollback", "undo the last action"},
			{"query", "show the implicit SELECT query"},
			{"state", "selection size and history"},
			{"cols", "list the table's columns"},
			{"describe", "per-column summary statistics"},
			{"sql SELECT ...", "run a Select-Project query on the base table"},
			{"export", "dump the session trail as JSON"},
			{"quit", "leave"},
		} {
			fmt.Fprintf(r.out, "  %-18s %s\n", h[0], h[1])
		}
	case "themes":
		fmt.Fprint(r.out, render.ThemeList(e.Themes()))
	case "graph":
		min := 0.1
		if len(args) > 0 {
			if v, err := strconv.ParseFloat(args[0], 64); err == nil {
				min = v
			}
		}
		fmt.Fprint(r.out, render.DependencyGraph(e.DependencyGraph(), min, 30))
	case "cols":
		for _, f := range e.Table().Schema() {
			fmt.Fprintf(r.out, "  %-40s %s\n", f.Name, f.Type)
		}
	case "describe":
		d := store.Describe(e.Table())
		header := d.ColumnNames()
		fmt.Fprintf(r.out, "%-28s %-8s %7s %6s %8s %10s %10s %10s %10s  %s\n",
			header[0], header[1], header[2], header[3], header[4],
			header[5], header[6], header[7], header[8], header[9])
		for i := 0; i < d.NumRows(); i++ {
			row := d.Row(i)
			fmt.Fprintf(r.out, "%-28s %-8s %7s %6s %8s %10s %10s %10s %10s  %s\n",
				clipStr(row[0], 28), row[1], row[2], row[3], row[4],
				clipNum(row[5]), clipNum(row[6]), clipNum(row[7]), clipNum(row[8]), row[9])
		}
	case "map", "project":
		if len(args) != 1 {
			r.errf("usage: %s N", cmd)
			return true
		}
		id, err := strconv.Atoi(args[0])
		if err != nil {
			r.errf("bad theme id %q", args[0])
			return true
		}
		var m *core.Map
		if cmd == "map" {
			m, err = e.SelectTheme(id)
		} else {
			m, err = e.Project(id)
		}
		if err != nil {
			r.errf("%v", err)
			return true
		}
		r.printMap(m)
	case "theme":
		if len(args) == 0 {
			r.errf("usage: theme col1,col2,...")
			return true
		}
		cols := splitList(strings.Join(args, " "))
		id, err := e.AddTheme(cols)
		if err != nil {
			r.errf("%v", err)
			return true
		}
		fmt.Fprintf(r.out, "added theme %d: %s\n", id, e.Themes()[id].Label())
	case "zoom":
		path, err := parsePath(args)
		if err != nil {
			r.errf("%v", err)
			return true
		}
		m, err := e.Zoom(path...)
		if err != nil {
			r.errf("%v", err)
			return true
		}
		fmt.Fprintf(r.out, "zoomed to %d tuples\n", e.State().Rows.Len())
		r.printMap(m)
	case "highlight":
		if len(args) < 1 {
			r.errf("usage: highlight COL [path]")
			return true
		}
		path, err := parsePath(args[1:])
		if err != nil {
			r.errf("%v", err)
			return true
		}
		h, err := e.Highlight(args[0], path...)
		if err != nil {
			r.errf("%v", err)
			return true
		}
		r.printHighlight(h)
	case "hist":
		if len(args) < 1 {
			r.errf("usage: hist COL [path]")
			return true
		}
		path, err := parsePath(args[1:])
		if err != nil {
			r.errf("%v", err)
			return true
		}
		hd, err := e.RegionHistogram(args[0], 12, path...)
		if err != nil {
			r.errf("%v", err)
			return true
		}
		fmt.Fprint(r.out, render.ASCIIHistogram(hd, 40))
	case "scatter":
		if len(args) < 2 {
			r.errf("usage: scatter X Y [path]")
			return true
		}
		path, err := parsePath(args[2:])
		if err != nil {
			r.errf("%v", err)
			return true
		}
		sd, err := e.RegionScatter(args[0], args[1], path...)
		if err != nil {
			r.errf("%v", err)
			return true
		}
		fmt.Fprintf(r.out, "%s vs %s over %d tuples: pearson %.3f, spearman %.3f\n",
			sd.XColumn, sd.YColumn, sd.N, sd.Pearson, sd.Spearman)
		fmt.Fprint(r.out, render.ASCIIScatter(sd.X, sd.Y, 56, 16))
	case "annotate":
		if len(args) < 2 {
			r.errf("usage: annotate P[,P...] text")
			return true
		}
		path, err := parsePath(args[:1])
		if err != nil {
			r.errf("%v", err)
			return true
		}
		if err := e.Annotate(strings.Join(args[1:], " "), path...); err != nil {
			r.errf("%v", err)
			return true
		}
		fmt.Fprintln(r.out, "annotated")
	case "filter":
		if len(args) == 0 {
			r.errf("usage: filter EXPR (e.g. filter income >= 22 AND hours < 20)")
			return true
		}
		if _, err := e.FilterExpr(strings.Join(args, " ")); err != nil {
			r.errf("%v", err)
			return true
		}
		fmt.Fprintf(r.out, "filtered to %d tuples\n", e.State().Rows.Len())
	case "sql":
		if len(args) == 0 {
			r.errf("usage: sql SELECT ... FROM %s ...", e.Table().Name())
			return true
		}
		res, err := e.RunSQL(strings.Join(args, " "))
		if err != nil {
			r.errf("%v", err)
			return true
		}
		r.printTable(res, 20)
	case "rollback":
		if err := e.Rollback(); err != nil {
			r.errf("%v", err)
			return true
		}
		fmt.Fprintf(r.out, "rolled back to %d tuples (%s)\n",
			e.State().Rows.Len(), e.State().Action)
	case "query":
		fmt.Fprintln(r.out, e.Query())
	case "export":
		data, err := e.Snapshot().MarshalIndentJSON()
		if err != nil {
			r.errf("%v", err)
			return true
		}
		fmt.Fprintln(r.out, string(data))
	case "state":
		for i, s := range e.History() {
			fmt.Fprintf(r.out, "%2d. %-13s %-44s %d tuples\n", i, s.Action, clipStr(s.Detail, 44), s.Rows.Len())
		}
	default:
		r.errf("unknown command %q (try help)", cmd)
	}
	return true
}

func (r *REPL) errf(format string, args ...any) {
	fmt.Fprintf(r.out, "error: "+format+"\n", args...)
}

func (r *REPL) printMap(m *core.Map) {
	fmt.Fprint(r.out, render.ASCIIMap(m, r.MapWidth, r.MapHeight))
	fmt.Fprint(r.out, m.Root.RenderTree())
}

// printTable renders the first maxRows rows of a table.
func (r *REPL) printTable(t *store.Table, maxRows int) {
	names := t.ColumnNames()
	fmt.Fprintln(r.out, strings.Join(names, " | "))
	n := t.NumRows()
	shown := n
	if shown > maxRows {
		shown = maxRows
	}
	for i := 0; i < shown; i++ {
		fmt.Fprintln(r.out, strings.Join(t.Row(i), " | "))
	}
	if shown < n {
		fmt.Fprintf(r.out, "... (%d more rows)\n", n-shown)
	}
	fmt.Fprintf(r.out, "(%d rows)\n", n)
}

func (r *REPL) printHighlight(h *core.Highlight) {
	fmt.Fprintf(r.out, "region: %s\n", h.Region)
	st := h.Stats
	if st.Type.IsNumeric() || st.Type == store.Bool {
		fmt.Fprintf(r.out, "%s: n=%d nulls=%d min=%.4g mean=%.4g max=%.4g std=%.4g\n",
			st.Name, st.Count, st.Nulls, st.Min, st.Mean, st.Max, st.Std)
	} else {
		fmt.Fprintf(r.out, "%s: n=%d nulls=%d distinct=%d\n", st.Name, st.Count, st.Nulls, st.Distinct)
	}
	if len(h.SampleValues) > 0 {
		fmt.Fprintf(r.out, "values: %s\n", strings.Join(h.SampleValues, ", "))
	}
}

func parsePath(args []string) ([]int, error) {
	if len(args) == 0 {
		return nil, nil
	}
	parts := strings.Split(strings.Join(args, ","), ",")
	var out []int
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad path element %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func clipStr(s string, w int) string {
	r := []rune(s)
	if len(r) <= w {
		return s
	}
	return string(r[:w-1]) + "…"
}

// clipNum shortens long float renderings for the describe table.
func clipNum(s string) string {
	if len(s) > 10 {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return strconv.FormatFloat(f, 'g', 4, 64)
		}
		return s[:10]
	}
	return s
}
