package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

// fabricPathRun is one pinned run of the fabric-path golden: the cycle
// count and every network counter.
type fabricPathRun struct {
	Name   string
	Cycles sim.Time
	Net    noc.Stats
}

// fabricPath is one configuration of the fabric-path golden.
type fabricPath struct {
	name string
	cfg  config.Config
}

// fabricPathConfigs lists the optical-fabric paths the figure goldens do
// not reach: ATAC+ adaptive routing, the broadcast-as-unicast ablation,
// BNet receive networks, and the fault paths (optical retransmission,
// channel degradation and rerouting) of all three optical fabrics under
// the worst resilience-sweep scenario.
func fabricPathConfigs(r *Runner) []fabricPath {
	var worst config.Fault
	for _, sc := range FaultScenarios() {
		if sc.Name == "drift+droop @1e-5" {
			worst = sc.Fault
		}
	}
	adaptive := r.Opt.Config(config.ATACPlus)
	adaptive.Network.Routing = config.AdaptiveRouting
	bcastUni := r.Opt.Config(config.ATACPlus)
	bcastUni.Network.BcastAsUnicast = true
	out := []fabricPath{
		{"ATAC+ adaptive", adaptive},
		{"ATAC+ bcast-as-unicast", bcastUni},
		{"ATAC BNet", r.Opt.Config(config.ATAC)},
	}
	for _, k := range []config.NetworkKind{config.ATACPlus, config.Corona, config.HybridMesh} {
		cfg := r.xtopoConfig(k)
		cfg.Fault = worst
		out = append(out, fabricPath{k.String() + " drift+droop", cfg})
	}
	return out
}

// TestGoldenFabricPaths16Core pins 16-core radix on the fabric paths
// listed by fabricPathConfigs: cycles plus the full noc.Stats must match
// the committed golden exactly. The fault runs must also keep exercising
// what they were chosen for — optical retransmission on every optical
// fabric, and degradation with rerouting on ATAC+ and the hybrid (the
// Corona crossbar never degrades) — so a golden that silently stops
// covering those paths fails too.
func TestGoldenFabricPaths16Core(t *testing.T) {
	r := NewRunner(Options{Cores: 16, Scale: 1, Seed: 42})
	r.Cache = nil // hermetic: never recall results from a REPRO_CACHE dir

	var got []fabricPathRun
	for _, c := range fabricPathConfigs(r) {
		res, err := r.Run(c.cfg, "radix")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, fabricPathRun{Name: c.name, Cycles: res.Cycles, Net: res.Net})
	}

	for _, run := range got[3:] {
		if run.Net.OpticalRetxPkts == 0 {
			t.Errorf("%s: no optical retransmissions; the fault path is no longer covered", run.Name)
		}
		degrades := run.Name != config.Corona.String()+" drift+droop"
		if degrades && (run.Net.DegradedChannels == 0 || run.Net.ReroutedMsgs == 0) {
			t.Errorf("%s: degraded %d, rerouted %d; the degradation path is no longer covered",
				run.Name, run.Net.DegradedChannels, run.Net.ReroutedMsgs)
		}
		if !degrades && run.Net.DegradedChannels != 0 {
			t.Errorf("%s: %d degraded channels; crossbar channels never degrade", run.Name, run.Net.DegradedChannels)
		}
	}

	path := filepath.Join("testdata", "golden_fabric_paths_16core.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	var want []fabricPathRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s diverged from golden:\ngot:  %+v\nwant: %+v", got[i].Name, got[i], want[i])
		}
	}
}
