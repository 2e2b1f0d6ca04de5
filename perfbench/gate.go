package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/experiments"
	"repro/internal/system"
)

// goldenDir holds the 16-core golden figure files the campaign's rows are
// checked against, relative to the repository root the benchmark runs in.
const goldenDir = "internal/experiments/testdata"

// goldenBenches are the benchmarks the golden files cover.
var goldenBenches = []string{"radix", "fmm", "lu_contig"}

// goldenSeed is the simulation seed the golden files were made with.
const goldenSeed = 42

// digest is the sha256 of the encoded result: two runs of one simulation
// are the same exactly when their digests are.
func digest(res system.Result) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// repeats remembers the first digest of every simulation in a run and
// reports a later repeat that differs.
type repeats map[string]string

func (r repeats) check(name string, res system.Result) error {
	d, err := digest(res)
	if err != nil {
		return fmt.Errorf("%s: digest: %w", name, err)
	}
	if first, ok := r[name]; !ok {
		r[name] = d
	} else if first != d {
		return fmt.Errorf("%s: result digest %.12s differs from the first run's %.12s", name, d, first)
	}
	return nil
}

// checkSim rejects a simulation that returned an error or did not finish.
// System.Run itself checks the workload's Validate and returns its error.
func checkSim(name string, res system.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !res.Finished {
		return fmt.Errorf("%s: did not finish", name)
	}
	return nil
}

// sameTables reports the first figure whose encoded table differs
// between two renderings of the campaign.
func sameTables(ids []string, a, b []*experiments.Table) error {
	for i := range ids {
		ja, err := json.Marshal(a[i])
		if err != nil {
			return err
		}
		jb, err := json.Marshal(b[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(ja, jb) {
			return fmt.Errorf("figure %s: warm-pass table differs from the cold pass", ids[i])
		}
	}
	return nil
}

// checkGolden compares the Fig 4, Fig 8 and xtopo rows of goldenBenches
// with the golden files in dir. The tables must come from a 16-core
// campaign at goldenSeed; each row depends only on its own benchmark, so
// a campaign over more benchmarks has the same rows.
func checkGolden(dir string, fig4, fig8, xtopo *experiments.Table) error {
	var g struct {
		Fig4 *experiments.Table `json:"fig4"`
		Fig8 *experiments.Table `json:"fig8"`
	}
	if err := readJSON(filepath.Join(dir, "golden_16core.json"), &g); err != nil {
		return err
	}
	var gx experiments.Table
	if err := readJSON(filepath.Join(dir, "golden_xtopo_16core.json"), &gx); err != nil {
		return err
	}
	for _, c := range []struct {
		name      string
		got, want *experiments.Table
	}{{"fig4", fig4, g.Fig4}, {"fig8", fig8, g.Fig8}, {"xtopo", xtopo, &gx}} {
		if c.want == nil || c.got == nil {
			return fmt.Errorf("golden %s: table missing", c.name)
		}
		if !reflect.DeepEqual(c.got.Columns, c.want.Columns) {
			return fmt.Errorf("golden %s: columns %q, want %q", c.name, c.got.Columns, c.want.Columns)
		}
		for _, b := range goldenBenches {
			got, want := row(c.got, b), row(c.want, b)
			if want == nil {
				return fmt.Errorf("golden %s: no %s row in the golden file", c.name, b)
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("golden %s: %s row %q, want %q", c.name, b, got, want)
			}
		}
	}
	return nil
}

func row(t *experiments.Table, label string) []string {
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == label {
			return r
		}
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
