package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// -update rewrites the golden files from the current simulator output:
//
//	go test ./internal/experiments -run Golden -update
//
// Do this only when a deliberate model change shifts the expected
// figures, and review the diff like any other behavioral change.
var update = flag.Bool("update", false, "rewrite golden figure files")

// goldenDoc is the committed shape of the 16-core smoke campaign: the
// full rendered figure tables plus the headline EDP ratios as numbers.
type goldenDoc struct {
	Fig3 *Table `json:"fig3"`
	Fig4 *Table `json:"fig4"`
	Fig8 *Table `json:"fig8"`
	// Campaign-average energy-delay ratios vs ATAC+ (the paper's
	// headline comparison; 1.8x / 4.8x at 1024 cores).
	AvgEDPBcastOverAtac float64 `json:"avg_edp_bcast_over_atac"`
	AvgEDPPureOverAtac  float64 `json:"avg_edp_pure_over_atac"`
}

// TestGoldenFigures16Core is the end-to-end regression gate: a 16-core
// smoke campaign must reproduce the committed figure tables exactly and
// the ATAC+ vs EMesh EDP ratios to 1e-9. Any change to the timing
// models, coherence protocol, network fabrics or energy accounting that
// shifts a figure shows up here as a reviewable golden diff.
func TestGoldenFigures16Core(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Cache = nil // hermetic: never recall results from a REPRO_CACHE dir
	r.Apps = []string{"radix", "fmm", "lu_contig"}

	fig4, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	fig8, avgB, avgP, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDoc{Fig3: Fig3(r.Opt, nil), Fig4: fig4, Fig8: fig8, AvgEDPBcastOverAtac: avgB, AvgEDPPureOverAtac: avgP}

	// Basic sanity independent of the golden. (No ordering claim: at 16
	// cores the optical fabric's latency overhead outweighs its scaling
	// advantage, so unlike the paper's 1024-core result the EMesh ratios
	// legitimately sit below 1 here.)
	if !(avgB > 0 && avgP > 0 && !math.IsInf(avgB, 0) && !math.IsInf(avgP, 0)) {
		t.Errorf("degenerate EDP ratios: bcast %.3f, pure %.3f", avgB, avgP)
	}

	path := filepath.Join("testdata", "golden_16core.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want goldenDoc
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	for _, tb := range []struct {
		name      string
		got, want *Table
	}{{"fig3", got.Fig3, want.Fig3}, {"fig4", got.Fig4, want.Fig4}, {"fig8", got.Fig8, want.Fig8}} {
		if !reflect.DeepEqual(tb.got, tb.want) {
			t.Errorf("%s diverged from golden:\ngot:\n%v\nwant:\n%v", tb.name, tb.got, tb.want)
		}
	}
	const tol = 1e-9
	if d := math.Abs(got.AvgEDPBcastOverAtac - want.AvgEDPBcastOverAtac); d > tol {
		t.Errorf("EMesh-BCast/ATAC+ EDP ratio %.12f, golden %.12f (|diff| %.2g > %g)",
			got.AvgEDPBcastOverAtac, want.AvgEDPBcastOverAtac, d, tol)
	}
	if d := math.Abs(got.AvgEDPPureOverAtac - want.AvgEDPPureOverAtac); d > tol {
		t.Errorf("EMesh-Pure/ATAC+ EDP ratio %.12f, golden %.12f (|diff| %.2g > %g)",
			got.AvgEDPPureOverAtac, want.AvgEDPPureOverAtac, d, tol)
	}
}

// TestGoldenXtopo16Core is the crossbar/hybrid regression gate: the
// 16-core cross-topology figure — one run per backend per benchmark,
// rendered through the same table path cmd/figures uses — must match the
// committed golden exactly. Any timing or energy drift in the Corona
// crossbar or the hybrid fabric shows up as a reviewable golden diff.
func TestGoldenXtopo16Core(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Cache = nil // hermetic: never recall results from a REPRO_CACHE dir
	r.Apps = []string{"radix", "fmm", "lu_contig"}

	tbl, err := r.Xtopo()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "golden_xtopo_16core.json")
	if *update {
		data, err := json.MarshalIndent(tbl, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want Table
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl, &want) {
		t.Errorf("xtopo diverged from golden:\ngot:\n%v\nwant:\n%v", tbl, &want)
	}
}
