package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"atomicsmodel/internal/metrics"
)

// This file is the harness end of the observability layer (see
// internal/metrics): cell results that carry a metrics snapshot deliver
// it to an Options.Metrics collector as they complete — fresh or
// replayed from the resume cache — and the collector renders the
// per-cell breakdown tables behind the CLIs' -metrics mode.

// cellMetricsProvider is implemented by result types that carry a
// metrics snapshot. *workload.Result and *apps.RunResult implement it.
type cellMetricsProvider interface {
	MetricsSnapshot() *metrics.Snapshot
}

// CellMetrics is one cell's snapshot, addressed the way the manifest
// addresses cells.
type CellMetrics struct {
	// Exp is the experiment ID, Cell the cell's index within it.
	Exp  string
	Cell int
	// Key is the cell's full config key ("" for un-keyed cells); Label
	// is its per-cell part (machine, threads, swept knobs).
	Key   string
	Label string
	// Snap is the cell's snapshot over its measured window.
	Snap *metrics.Snapshot
}

// MetricsCollector accumulates per-cell metrics snapshots across
// experiments. Attach one via Options.Metrics: runners then enable
// their workloads' registries, and the scheduler delivers every
// snapshot here (cache replays included, so a resumed run collects
// exactly what the fresh run did). Methods are safe for concurrent use
// by scheduler workers; output ordering never depends on completion
// order.
type MetricsCollector struct {
	mu    sync.Mutex
	cells []CellMetrics
}

// record stores one cell's snapshot (called by the cell scheduler).
func (mc *MetricsCollector) record(cm CellMetrics) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.cells = append(mc.cells, cm)
}

// Cells returns every collected snapshot sorted by experiment display
// order, then cell index — the deterministic order the tables use. An
// experiment that fans out more than once reuses cell indices; its
// fan-outs run one after another, so the stable sort keeps tied cells
// in fan-out order.
func (mc *MetricsCollector) Cells() []CellMetrics {
	mc.mu.Lock()
	out := make([]CellMetrics, len(mc.cells))
	copy(out, mc.cells)
	mc.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Exp != out[j].Exp {
			ki, kj := orderKey(out[i].Exp), orderKey(out[j].Exp)
			if ki != kj {
				return ki < kj
			}
			return out[i].Exp < out[j].Exp
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// Tables renders one per-cell breakdown table per experiment: a row per
// cell, a column per counter, plus mean/max columns for histograms and
// sum/min-max-ratio columns for vectors. Columns are the union of the
// instruments seen across the experiment's cells, sorted by name, so
// heterogeneous cells still line up.
func (mc *MetricsCollector) Tables() []*Table {
	cells := mc.Cells()
	var tables []*Table
	for start := 0; start < len(cells); {
		end := start
		for end < len(cells) && cells[end].Exp == cells[start].Exp {
			end++
		}
		tables = append(tables, metricsTable(cells[start].Exp, cells[start:end]))
		start = end
	}
	return tables
}

// metricsTable renders one experiment's cells.
func metricsTable(exp string, cells []CellMetrics) *Table {
	counterSet := map[string]bool{}
	histSet := map[string]bool{}
	vecSet := map[string]bool{}
	for _, cm := range cells {
		if cm.Snap == nil {
			continue
		}
		for _, c := range cm.Snap.Counters {
			counterSet[c.Name] = true
		}
		for _, h := range cm.Snap.Hists {
			histSet[h.Name] = true
		}
		for _, v := range cm.Snap.Vectors {
			vecSet[v.Name] = true
		}
	}
	counters := sortedKeys(counterSet)
	hists := sortedKeys(histSet)
	vecs := sortedKeys(vecSet)

	cols := []string{"cell"}
	cols = append(cols, counters...)
	for _, h := range hists {
		cols = append(cols, h+".mean", h+".max")
	}
	for _, v := range vecs {
		cols = append(cols, v+".sum", v+".minmax")
	}
	t := NewTable("metrics ("+exp+"): per-cell breakdown over the measured window", cols...)
	for _, cm := range cells {
		label := cm.Label
		if label == "" {
			label = fmt.Sprintf("cell %d", cm.Cell)
		}
		row := []string{label}
		for _, name := range counters {
			v, _ := cm.Snap.Counter(name)
			row = append(row, fmt.Sprintf("%d", v))
		}
		for _, name := range hists {
			if h := cm.Snap.Hist(name); h != nil {
				row = append(row, f2(h.Mean()), fmt.Sprintf("%d", h.Max))
			} else {
				row = append(row, "-", "-")
			}
		}
		for _, name := range vecs {
			vals := cm.Snap.Vector(name)
			if vals == nil {
				row = append(row, "-", "-")
				continue
			}
			var sum, min, max uint64
			min = ^uint64(0)
			for _, v := range vals {
				sum += v
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
			ratio := 1.0
			if max > 0 {
				ratio = float64(min) / float64(max)
			}
			row = append(row, fmt.Sprintf("%d", sum), f2(ratio))
		}
		t.AddRow(row...)
	}
	t.AddNote("counters and histograms cover the measured window; see internal/metrics for the naming scheme")
	return t
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// metricsLabel strips the cell key's option prefix, leaving the
// per-cell part for table rows.
func (o Options) metricsLabel(key string) string {
	return strings.TrimPrefix(key, o.cellKey(""))
}
