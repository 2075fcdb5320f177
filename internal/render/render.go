// Package render draws data maps. The paper's client renders maps as
// interactive D3 treemaps (Fig. 1b, Fig. 6); this package produces the
// equivalent static artifacts: ASCII treemaps and region trees for the
// terminal, and SVG treemaps for the browser client served by blaeud.
package render

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// ASCIIMap renders a data map as a fixed-width treemap: one block of rows
// per leaf region, block height proportional to tuple count (the paper:
// "The area of the leaves shows the number of tuples covered").
func ASCIIMap(m *core.Map, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 6 {
		height = 6
	}
	leaves := m.Root.Leaves()
	total := 0
	for _, l := range leaves {
		total += l.Count()
	}
	if total == 0 {
		return "(empty map)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Data map — theme: %s  (k=%d, silhouette %.2f, described from %d samples)\n",
		m.Theme.Label(), m.K, m.Silhouette, m.SampleSize)
	sb.WriteString(strings.Repeat("=", width) + "\n")
	for _, l := range leaves {
		h := int(float64(height) * float64(l.Count()) / float64(total))
		if h < 1 {
			h = 1
		}
		label := l.Describe()
		info := fmt.Sprintf("cluster %d | n=%d (%.1f%%)", l.ClusterID, l.Count(),
			100*float64(l.Count())/float64(total))
		lines := make([]string, h)
		lines[0] = clip(" "+info, width)
		if h > 1 {
			lines[1] = clip(" "+label, width)
		} else if len(label) > 0 {
			lines[0] = clip(" "+info+" | "+label, width)
		}
		for i, ln := range lines {
			fill := "░"
			if l.ClusterID%2 == 1 {
				fill = "▒"
			}
			pad := width - len([]rune(ln))
			if pad < 0 {
				pad = 0
			}
			lines[i] = ln + strings.Repeat(fill, pad)
		}
		for _, ln := range lines {
			sb.WriteString(ln + "\n")
		}
		sb.WriteString(strings.Repeat("-", width) + "\n")
	}
	return sb.String()
}

func clip(s string, w int) string {
	r := []rune(s)
	if len(r) <= w {
		return s
	}
	if w <= 1 {
		return string(r[:w])
	}
	return string(r[:w-1]) + "…"
}

// ASCIIHistogram renders a histogram with unicode bars, for highlight
// panels.
func ASCIIHistogram(h *core.HistogramData, width int) string {
	if width < 10 {
		width = 10
	}
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", h.Column)
	for i, c := range h.Counts {
		bar := 0
		if max > 0 {
			bar = c * width / max
		}
		lo := h.Edges[i]
		hi := lo
		if i+1 < len(h.Edges) {
			hi = h.Edges[i+1]
		}
		fmt.Fprintf(&sb, "[%9.3g, %9.3g) %s %d\n", lo, hi, strings.Repeat("█", bar), c)
	}
	return sb.String()
}

// ASCIIScatter renders paired values as a character scatter-plot in a
// width×height grid (the bivariate view of the highlight panel). Cells
// with one point draw '·', several points '•', many '█'.
func ASCIIScatter(xs, ys []float64, width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n == 0 {
		return "(no points)\n"
	}
	minX, maxX := xs[0], xs[0]
	minY, maxY := ys[0], ys[0]
	for i := 0; i < n; i++ {
		if xs[i] < minX {
			minX = xs[i]
		}
		if xs[i] > maxX {
			maxX = xs[i]
		}
		if ys[i] < minY {
			minY = ys[i]
		}
		if ys[i] > maxY {
			maxY = ys[i]
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]int, height)
	for r := range grid {
		grid[r] = make([]int, width)
	}
	for i := 0; i < n; i++ {
		c := int((xs[i] - minX) / (maxX - minX) * float64(width-1))
		r := int((ys[i] - minY) / (maxY - minY) * float64(height-1))
		grid[height-1-r][c]++ // y grows upward
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "y ∈ [%.3g, %.3g]\n", minY, maxY)
	for _, row := range grid {
		sb.WriteString("|")
		for _, c := range row {
			switch {
			case c == 0:
				sb.WriteByte(' ')
			case c == 1:
				sb.WriteString("·")
			case c <= 4:
				sb.WriteString("•")
			default:
				sb.WriteString("█")
			}
		}
		sb.WriteString("\n")
	}
	sb.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&sb, "x ∈ [%.3g, %.3g]\n", minX, maxX)
	return sb.String()
}

// ThemeList renders the theme view (paper Fig. 1a / Fig. 5) as text.
func ThemeList(themes []core.Theme) string {
	var sb strings.Builder
	sb.WriteString("Themes (most cohesive first):\n")
	for _, th := range themes {
		fmt.Fprintf(&sb, "%3d. %-60s cohesion %.2f\n", th.ID, th.Label(), th.Cohesion)
	}
	return sb.String()
}

// SVGRect is one rectangle of an SVG treemap.
type SVGRect struct {
	X, Y, W, H float64
	Label      string
	ClusterID  int
	Count      int
}

// Squarify lays out the leaf regions of a map as a squarified treemap in a
// width×height canvas, largest regions first — the layout D3's treemap
// uses for Blaeu's map view.
func Squarify(m *core.Map, width, height float64) []SVGRect {
	leaves := m.Root.Leaves()
	total := 0.0
	for _, l := range leaves {
		total += float64(l.Count())
	}
	if total == 0 || len(leaves) == 0 {
		return nil
	}
	sorted := append([]*core.Region(nil), leaves...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Count() > sorted[j].Count() })
	areas := make([]float64, len(sorted))
	for i, l := range sorted {
		areas[i] = float64(l.Count()) / total * width * height
	}
	rects := make([]SVGRect, 0, len(sorted))
	layout(areas, 0, 0, width, height, func(i int, x, y, w, h float64) {
		rects = append(rects, SVGRect{
			X: x, Y: y, W: w, H: h,
			Label:     sorted[i].Describe(),
			ClusterID: sorted[i].ClusterID,
			Count:     sorted[i].Count(),
		})
	})
	return rects
}

// layout is a simple slice-and-dice with alternating direction weighted by
// area — adequate for the handful of regions a readable map carries.
func layout(areas []float64, x, y, w, h float64, emit func(i int, x, y, w, h float64)) {
	n := len(areas)
	if n == 0 {
		return
	}
	if n == 1 {
		emit(0, x, y, w, h)
		return
	}
	// Split areas into two halves balanced by total area.
	total := 0.0
	for _, a := range areas {
		total += a
	}
	acc, split := 0.0, 1
	for i := 0; i < n-1; i++ {
		acc += areas[i]
		if acc >= total/2 {
			split = i + 1
			break
		}
	}
	frac := 0.0
	for i := 0; i < split; i++ {
		frac += areas[i]
	}
	frac /= total
	emitOffset := func(off int) func(int, float64, float64, float64, float64) {
		return func(i int, x, y, w, h float64) { emit(i+off, x, y, w, h) }
	}
	if w >= h {
		lw := w * frac
		layout(areas[:split], x, y, lw, h, emitOffset(0))
		layout(areas[split:], x+lw, y, w-lw, h, emitOffset(split))
	} else {
		lh := h * frac
		layout(areas[:split], x, y, w, lh, emitOffset(0))
		layout(areas[split:], x, y+lh, w, h-lh, emitOffset(split))
	}
}

// svgPalette are the region fill colors.
var svgPalette = []string{
	"#8ecae6", "#ffb703", "#90be6d", "#f28482", "#b197fc", "#f9c74f",
	"#43aa8b", "#f3722c",
}

// SVGMap renders the map as a standalone SVG treemap document.
func SVGMap(m *core.Map, width, height float64) string {
	rects := Squarify(m, width, height)
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%g" height="%g" font-family="sans-serif">`, width, height)
	sb.WriteString("\n")
	for _, r := range rects {
		color := svgPalette[((r.ClusterID%len(svgPalette))+len(svgPalette))%len(svgPalette)]
		fmt.Fprintf(&sb,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#333"/>`,
			r.X, r.Y, r.W, r.H, color)
		sb.WriteString("\n")
		if r.W > 60 && r.H > 24 {
			fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-size="11">%s</text>`,
				r.X+4, r.Y+14, escapeXML(clip(r.Label, int(r.W/7))))
			sb.WriteString("\n")
			fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-size="10" fill="#333">n=%d</text>`,
				r.X+4, r.Y+27, r.Count)
			sb.WriteString("\n")
		}
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// xmlEscaper is built once: a Replacer is safe for concurrent use.
var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")

func escapeXML(s string) string { return xmlEscaper.Replace(s) }
