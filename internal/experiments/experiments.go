// Package experiments implements the reproduction harness: one runner per
// figure, demonstration scenario and performance claim of the paper
// (`blaeu-bench -list` prints the index). The same runners back the
// blaeu-bench command and the root-level testing.B benchmarks.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config tunes an experiment run.
type Config struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Scale shrinks the heavy experiments for quick runs: 1.0 is the
	// full paper-shaped run, 0.1 a smoke test (default 1.0).
	Scale float64
	// Verbose adds rendered maps and extra notes to the results.
	Verbose bool
}

func (c *Config) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 10 {
		v = 10
	}
	return v
}

// Result is the outcome of one experiment: a table in the spirit of the
// figure it reproduces, plus free-form notes.
type Result struct {
	// ID is the experiment identifier (e.g. "f1b", "e2").
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Headers and Rows form the result table.
	Headers []string
	Rows    [][]string
	// Notes carries commentary: what the paper claims, what we measured.
	Notes []string
	// Artifacts holds named renderings (ASCII maps, graphs).
	Artifacts map[string]string
}

func (r *Result) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) artifact(name, content string) {
	if r.Artifacts == nil {
		r.Artifacts = make(map[string]string)
	}
	r.Artifacts[name] = content
}

// Format renders the result as an aligned text table with notes.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", strings.ToUpper(r.ID), r.Title)
	if len(r.Headers) > 0 {
		widths := make([]int, len(r.Headers))
		for i, h := range r.Headers {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					sb.WriteString("  ")
				}
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			}
			sb.WriteString("\n")
		}
		line(r.Headers)
		for i, w := range widths {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(strings.Repeat("-", w))
		}
		sb.WriteString("\n")
		for _, row := range r.Rows {
			line(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	if len(r.Artifacts) > 0 {
		names := make([]string, 0, len(r.Artifacts))
		for n := range r.Artifacts {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&sb, "--- %s ---\n%s", n, r.Artifacts[n])
		}
	}
	return sb.String()
}

// Runner executes one experiment.
type Runner func(Config) (*Result, error)

// registry maps experiment IDs to runners, populated by init functions in
// the per-experiment files.
var registry = map[string]Runner{}

// descriptions maps IDs to one-line summaries for listings.
var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

// IDs returns the registered experiment IDs in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line summary of an experiment.
func Describe(id string) string { return descriptions[id] }

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	cfg.defaults()
	return r(cfg)
}
