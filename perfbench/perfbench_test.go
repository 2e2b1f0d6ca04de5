package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/system"
)

// The tests run in perfbench/, one level below the repository root.
var testGoldenDir = filepath.Join("..", goldenDir)

func TestRepeatsRejectsChangedDigest(t *testing.T) {
	seen := repeats{}
	res := system.Result{Benchmark: "radix", Cycles: 1000, Instructions: 50, Finished: true}
	if err := seen.check("radix@pure", res); err != nil {
		t.Fatal(err)
	}
	if err := seen.check("radix@pure", res); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	res.Net.InjectedFlits++
	if err := seen.check("radix@pure", res); err == nil {
		t.Fatal("a repeat with a different result passed")
	}
}

func TestCheckSimRejectsUnfinished(t *testing.T) {
	if err := checkSim("radix", system.Result{Finished: false}, nil); err == nil {
		t.Fatal("unfinished simulation passed")
	}
}

// goldenTables reads the golden files back as the tables a seed-42
// campaign renders.
func goldenTables(t *testing.T) (fig4, fig8, xtopo *experiments.Table) {
	t.Helper()
	var g struct {
		Fig4 *experiments.Table `json:"fig4"`
		Fig8 *experiments.Table `json:"fig8"`
	}
	if err := readJSON(filepath.Join(testGoldenDir, "golden_16core.json"), &g); err != nil {
		t.Fatal(err)
	}
	var x experiments.Table
	if err := readJSON(filepath.Join(testGoldenDir, "golden_xtopo_16core.json"), &x); err != nil {
		t.Fatal(err)
	}
	return g.Fig4, g.Fig8, &x
}

func TestCheckGoldenRejectsChangedRow(t *testing.T) {
	fig4, fig8, xtopo := goldenTables(t)
	if err := checkGolden(testGoldenDir, fig4, fig8, xtopo); err != nil {
		t.Fatalf("golden tables rejected: %v", err)
	}
	// A campaign over all benchmarks has more rows; only the golden
	// benchmarks' rows are compared.
	fig4.Rows = append(fig4.Rows, []string{"barnes", "1", "2", "3", "4", "5"})
	if err := checkGolden(testGoldenDir, fig4, fig8, xtopo); err != nil {
		t.Fatalf("extra row rejected: %v", err)
	}
	for _, tb := range []*experiments.Table{fig4, fig8, xtopo} {
		r := row(tb, "fmm")
		old := r[1]
		r[1] += "1"
		if err := checkGolden(testGoldenDir, fig4, fig8, xtopo); err == nil {
			t.Errorf("%s: changed fmm row passed", tb.Title)
		}
		r[1] = old
	}
}

func TestSameTablesRejectsChangedCell(t *testing.T) {
	fig4, _, _ := goldenTables(t)
	warm := *fig4
	warm.Rows = [][]string{append([]string(nil), fig4.Rows[0]...)}
	cold := *fig4
	cold.Rows = [][]string{fig4.Rows[0]}
	ids := []string{"4"}
	if err := sameTables(ids, []*experiments.Table{&cold}, []*experiments.Table{&warm}); err != nil {
		t.Fatal(err)
	}
	warm.Rows[0][2] = "0"
	if err := sameTables(ids, []*experiments.Table{&cold}, []*experiments.Table{&warm}); err == nil {
		t.Fatal("differing tables passed")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.call("pass", func() {
		tr.call("system.Run", func() {
			tr.call("energy.Combine", func() { time.Sleep(20 * time.Millisecond) })
			time.Sleep(10 * time.Millisecond)
		})
	})
	self := tr.selfByName(tr.last("pass"))
	if c := self["energy.Combine"]; c < 20*time.Millisecond {
		t.Errorf("child self time %v, want >= 20ms", c)
	}
	if r := self["system.Run"]; r < 10*time.Millisecond || r > 20*time.Millisecond {
		t.Errorf("parent self time %v, want its own 10ms without the child", r)
	}
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != tr.spans[1].ID {
		t.Errorf("parents wrong: %+v", tr.spans)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/noc.(*router).tick", "repro/internal/sim.(*Kernel).Run"}, "noc"},
		{[]string{"runtime.mapaccess2", "repro/internal/coherence.(*Ctrl).handle"}, "coherence"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/noc.newWorm"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.ready", "runtime.chansend", "repro/internal/cpu.(*Proc).Load"}, "runtime_sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"crypto/sha256.block", "main.digest"}, "other"},
		{[]string{"runtime.nanotime"}, "runtime_other"},
		{[]string{"repro/internal/experiments.(*Runner).execute.func1[go.shape.int]"}, "experiments"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var sink uint64

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := uint64(0); i < 1e5; i++ {
			sink += i * i
		}
	}
	pprof.StopCPUProfile()
	into := map[string]int64{}
	n, err := foldProfile(buf.Bytes(), into)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || into["other"] == 0 {
		t.Fatalf("folded %d samples into %v, want the busy loop under other", n, into)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	b := &bench{cpuNS: map[string]int64{}}
	e2e := b.endToEnd()
	if len(doc.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	layer := b.perLayer()
	if len(doc.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(doc.PerLayer), len(layer))
	}
	for _, m := range doc.PerLayer {
		if got, ok := layer[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
}
