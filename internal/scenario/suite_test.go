package scenario

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netmax/internal/engine"
	"netmax/internal/stats"
)

// tinySuite is a small two-arm, two-seed grid suite over an inline base:
// 4 quick engine runs.
func tinySuite() *Suite {
	return &Suite{
		Name: "t-suite",
		Base: &SuiteMember{Manifest: &Manifest{
			Name: "t-base", Model: "MobileNet", Dataset: "MNIST",
			Workers: 4, Epochs: 1,
			Network: &NetworkSpec{Kind: "static"},
		}},
		Grid: &GridSpec{
			Algorithms: []string{"netmax", "adpsgd"},
			Replicate:  &ReplicateSpec{N: 2},
		},
		Output: &SuiteOutputSpec{TargetLoss: 2.0},
	}
}

// TestSuiteResolveFixedPoint checks that a resolved suite survives a
// marshal/parse/resolve round trip unchanged, for both the grid and the
// explicit-run-list forms.
func TestSuiteResolveFixedPoint(t *testing.T) {
	explicit := &Suite{
		Name: "t-explicit",
		Runs: []SuiteMember{
			{Manifest: minimal(), Arm: "a"},
			{Manifest: &Manifest{
				Name: "t-minimal-2", Model: "MobileNet", Dataset: "MNIST",
				Workers: 4, Epochs: 2, Seed: 7,
				Network: &NetworkSpec{Kind: "static"},
			}},
		},
	}
	for _, s := range []*Suite{tinySuite(), explicit} {
		t.Run(s.Name, func(t *testing.T) {
			if err := s.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			r, err := s.Resolve(false)
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			again, err := r.Resolve(false)
			if err != nil {
				t.Fatalf("re-Resolve: %v", err)
			}
			if !reflect.DeepEqual(r, again) {
				t.Fatalf("Resolve not idempotent:\n%+v\nvs\n%+v", r, again)
			}
			raw, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back, err := ParseSuite(raw)
			if err != nil {
				t.Fatalf("ParseSuite(Resolve): %v", err)
			}
			resolved, err := back.Resolve(false)
			if err != nil {
				t.Fatalf("Resolve(parse back): %v", err)
			}
			if !reflect.DeepEqual(r, resolved) {
				t.Fatalf("resolved suite is not a marshal/parse fixed point:\n%s", raw)
			}
		})
	}
}

// TestSuiteGridExpansion checks the grid semantics: the algorithm x codec x
// seed cross product, seeds derived exactly as stats.ReplicaSeed derives
// them, arm labels, member naming, and the dropping of base blocks an arm
// cannot carry.
func TestSuiteGridExpansion(t *testing.T) {
	s := &Suite{
		Name: "t-grid",
		Base: &SuiteMember{Manifest: &Manifest{
			Name: "t-base", Model: "MobileNet", Dataset: "MNIST",
			Workers: 4, Epochs: 1, Seed: 3,
			Network: &NetworkSpec{Kind: "static"},
			NetMax:  &NetMaxSpec{StalePeriods: 2},
		}},
		Grid: &GridSpec{
			Algorithms: []string{"netmax", "adpsgd"},
			Codecs:     []CodecSpec{{Name: "raw"}, {Name: "topk", TopKFrac: 0.25}},
			Replicate:  &ReplicateSpec{N: 3},
		},
	}
	r, err := s.Resolve(false)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(r.Runs) != 2*2*3 {
		t.Fatalf("expected 12 runs, got %d", len(r.Runs))
	}
	// Seeds follow stats.ReplicaSeed off the base's seed, repeating per arm.
	for i, mem := range r.Runs {
		want := stats.ReplicaSeed(3, i%3)
		if mem.Manifest.Seed != want {
			t.Errorf("run %d: seed %d, want %d (stats.ReplicaSeed)", i, mem.Manifest.Seed, want)
		}
	}
	// The replicas of one arm run on pairwise distinct seeds.
	seen := map[int64]bool{}
	for _, mem := range r.Runs[:3] {
		if seen[mem.Manifest.Seed] {
			t.Errorf("replica seed %d repeats within arm %q", mem.Manifest.Seed, mem.Arm)
		}
		seen[mem.Manifest.Seed] = true
	}
	first := r.Runs[0]
	if first.Arm != "netmax-raw" {
		t.Errorf("arm = %q, want netmax-raw", first.Arm)
	}
	if first.Manifest.Name != "t-grid-netmax-raw-s3" {
		t.Errorf("member name = %q", first.Manifest.Name)
	}
	if first.Manifest.NetMax == nil || first.Manifest.NetMax.StalePeriods != 2 {
		t.Errorf("netmax arm lost the base's netmax block: %+v", first.Manifest.NetMax)
	}
	// The adpsgd arms must have dropped the monitor block, and the topk
	// arms must carry the grid's codec.
	var sawADPSGDTopK bool
	for _, mem := range r.Runs {
		m := mem.Manifest
		if m.Algorithm == "adpsgd" && m.NetMax != nil {
			t.Errorf("adpsgd arm %q kept the netmax block", m.Name)
		}
		if mem.Arm == "adpsgd-topk0.25" {
			sawADPSGDTopK = true
			if m.Codec == nil || m.Codec.Name != "topk" || m.Codec.TopKFrac != 0.25 {
				t.Errorf("topk arm %q has codec %+v", m.Name, m.Codec)
			}
		}
	}
	if !sawADPSGDTopK {
		arms := make([]string, 0, len(r.Runs))
		for _, mem := range r.Runs {
			arms = append(arms, mem.Arm)
		}
		t.Fatalf("no adpsgd-topk0.25 arm among %v", arms)
	}
}

// TestSuitePathMembers checks file-anchored member resolution: paths
// resolve relative to the suite file, and quick resolution applies the
// member's own quick overrides.
func TestSuitePathMembers(t *testing.T) {
	dir := t.TempDir()
	member := []byte(`{
	  "name": "member-a", "model": "MobileNet", "dataset": "MNIST",
	  "workers": 4, "epochs": 4,
	  "network": {"kind": "static"},
	  "quick": {"workers": 2, "epochs": 1}
	}`)
	if err := os.WriteFile(filepath.Join(dir, "member-a.json"), member, 0o644); err != nil {
		t.Fatal(err)
	}
	suite := []byte(`{
	  "name": "t-paths",
	  "runs": [{"path": "member-a.json", "arm": "a"}],
	  "base": null
	}`)
	path := filepath.Join(dir, "t-paths.json")
	if err := os.WriteFile(path, suite, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSuite(path)
	if err != nil {
		t.Fatalf("LoadSuite: %v", err)
	}
	full, err := s.Resolve(false)
	if err != nil {
		t.Fatalf("Resolve(full): %v", err)
	}
	if got := full.Runs[0].Manifest; got.Workers != 4 || got.Epochs != 4 {
		t.Errorf("full-scale member resolved to workers=%d epochs=%d", got.Workers, got.Epochs)
	}
	quick, err := s.Resolve(true)
	if err != nil {
		t.Fatalf("Resolve(quick): %v", err)
	}
	if got := quick.Runs[0].Manifest; got.Workers != 2 || got.Epochs != 1 {
		t.Errorf("quick member resolved to workers=%d epochs=%d, want 2/1", got.Workers, got.Epochs)
	}
	if quick.Runs[0].Manifest.Quick != nil {
		t.Errorf("quick block survived suite resolution")
	}
}

// TestSuiteValidateRejectsMalformed is the malformed-suite table.
func TestSuiteValidateRejectsMalformed(t *testing.T) {
	valid := `{"name": "m", "model": "MobileNet", "dataset": "MNIST", "workers": 4, "epochs": 1, "network": {"kind": "static"}}`
	cases := []struct {
		name     string
		raw      string
		fragment string
	}{
		{"unknown field", `{"name": "x", "runz": []}`, "runz"},
		{"trailing data", `{"name": "x", "runs": [{"manifest": ` + valid + `}]} {}`, "trailing data"},
		{"empty name", `{"runs": [{"manifest": ` + valid + `}]}`, "name must be non-empty"},
		{"separator in name", `{"name": "a/b", "runs": [{"manifest": ` + valid + `}]}`, "path separators"},
		{"no members", `{"name": "x"}`, "needs members"},
		{"runs and grid", `{"name": "x", "runs": [{"manifest": ` + valid + `}], "grid": {"replicate": {"n": 2}}}`, "mutually exclusive"},
		{"base without grid", `{"name": "x", "base": {"manifest": ` + valid + `}}`, "set grid"},
		{"grid without base", `{"name": "x", "grid": {"replicate": {"n": 2}}}`, "requires a base"},
		{"empty grid", `{"name": "x", "base": {"manifest": ` + valid + `}, "grid": {}}`, "expands nothing"},
		{"bad grid algorithm", `{"name": "x", "base": {"manifest": ` + valid + `}, "grid": {"algorithms": ["sgd"]}}`, "unknown algorithm"},
		{"replicate n", `{"name": "x", "base": {"manifest": ` + valid + `}, "grid": {"replicate": {"n": 0}}}`, "replicate.n"},
		{"negative base seed", `{"name": "x", "base": {"manifest": ` + valid + `}, "grid": {"replicate": {"n": 2, "base_seed": -1}}}`, "base_seed"},
		{"negative target loss", `{"name": "x", "runs": [{"manifest": ` + valid + `}], "output": {"target_loss": -1}}`, "target_loss"},
		{"member path and manifest", `{"name": "x", "runs": [{"path": "a.json", "manifest": ` + valid + `}]}`, "exactly one of path and manifest"},
		{"member neither", `{"name": "x", "runs": [{"arm": "a"}]}`, "exactly one of path and manifest"},
		{"base with arm", `{"name": "x", "base": {"manifest": ` + valid + `, "arm": "a"}, "grid": {"replicate": {"n": 2}}}`, "base takes no arm"},
		{"duplicate member names", `{"name": "x", "runs": [{"manifest": ` + valid + `}, {"manifest": ` + valid + `}]}`, "share the name"},
		{"invalid member", `{"name": "x", "runs": [{"manifest": {"name": "m", "model": "ResNet34"}}]}`, "unknown model"},
		{"bad codec arm", `{"name": "x", "base": {"manifest": ` + valid + `}, "grid": {"codecs": [{"name": "zstd"}]}}`, "unknown codec"},
		{"missing member file", `{"name": "x", "runs": [{"path": "no-such-file.json"}]}`, "no-such-file.json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSuite([]byte(c.raw))
			if err == nil {
				t.Fatalf("ParseSuite accepted malformed suite %s", c.raw)
			}
			if !strings.Contains(err.Error(), c.fragment) {
				t.Fatalf("error %q does not mention %q", err, c.fragment)
			}
		})
	}
}

// TestIsSuite checks the content-based detection LoadAny relies on.
func TestIsSuite(t *testing.T) {
	if IsSuite([]byte(`{"name": "x", "workers": 4}`)) {
		t.Errorf("single manifest detected as suite")
	}
	for _, raw := range []string{
		`{"name": "x", "runs": []}`,
		`{"name": "x", "base": {}, "grid": {}}`,
	} {
		if !IsSuite([]byte(raw)) {
			t.Errorf("suite document not detected: %s", raw)
		}
	}
}

// readTree returns path -> contents for every file under dir, with paths
// relative to dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(raw)
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
	return out
}

// requireSameTree asserts two output trees are byte-identical.
func requireSameTree(t *testing.T, name string, a, b map[string]string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: tree sizes differ: %d vs %d files", name, len(a), len(b))
	}
	for rel, body := range a {
		other, ok := b[rel]
		if !ok {
			t.Fatalf("%s: %s missing from second tree", name, rel)
		}
		if body != other {
			t.Fatalf("%s: %s differs between trees", name, rel)
		}
	}
}

// TestRunSuiteEmitsOutputs runs a tiny suite with an output directory and
// checks the reproducibility contract: resolved-suite.json, suite.json and
// the per-run outputs are written, and re-running the emitted resolved run
// list reproduces the entire tree bitwise.
func TestRunSuiteEmitsOutputs(t *testing.T) {
	out := t.TempDir()
	rep, err := RunSuite(tinySuite(), SuiteRunOptions{OutDir: out})
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	dir := filepath.Join(out, "t-suite")
	if rep.Dir != dir {
		t.Fatalf("SuiteReport.Dir = %q, want %q", rep.Dir, dir)
	}
	for _, f := range []string{"resolved-suite.json", "suite.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("expected suite output %s: %v", f, err)
		}
	}
	if len(rep.Reports) != 4 {
		t.Fatalf("expected 4 member reports, got %d", len(rep.Reports))
	}
	for _, mem := range rep.Suite.Runs {
		for _, f := range []string{"resolved.json", "result.json"} {
			if _, err := os.Stat(filepath.Join(dir, mem.Manifest.Name, f)); err != nil {
				t.Fatalf("expected member output %s/%s: %v", mem.Manifest.Name, f, err)
			}
		}
	}
	if got := len(rep.Table.Arms); got != 2 {
		t.Fatalf("expected 2 arms in the joint table, got %d", got)
	}
	for _, arm := range rep.Table.Arms {
		if arm.N != 2 {
			t.Errorf("arm %s has n=%d, want 2", arm.Arm, arm.N)
		}
		if arm.BytesOnWire.Mean <= 0 {
			t.Errorf("arm %s reports no traffic", arm.Arm)
		}
	}
	// The emitted resolved run list reproduces everything bitwise.
	back, err := LoadSuite(filepath.Join(dir, "resolved-suite.json"))
	if err != nil {
		t.Fatalf("emitted resolved suite does not reload: %v", err)
	}
	out2 := t.TempDir()
	if _, err := RunSuite(back, SuiteRunOptions{OutDir: out2}); err != nil {
		t.Fatalf("re-running resolved suite: %v", err)
	}
	requireSameTree(t, "rerun", readTree(t, dir), readTree(t, filepath.Join(out2, "t-suite")))
}

// TestSuiteRunParallelismBitwise is the suite-level determinism gate (run
// in CI's race/determinism job): a suite executed serially and under the
// concurrent driver produces byte-identical per-run outputs and an
// identical joint table.
func TestSuiteRunParallelismBitwise(t *testing.T) {
	trees := map[int]map[string]string{}
	for _, par := range []int{1, 4} {
		out := t.TempDir()
		rep, err := RunSuite(tinySuite(), SuiteRunOptions{OutDir: out, Par: par})
		if err != nil {
			t.Fatalf("RunSuite(par=%d): %v", par, err)
		}
		trees[par] = readTree(t, rep.Dir)
	}
	requireSameTree(t, "par1-vs-par4", trees[1], trees[4])
}

// TestRunSuiteValidatesShape checks that programmatically built suites
// cannot bypass the suite-level structural checks by going straight to
// RunSuite — a path-separator name must never become an output path.
func TestRunSuiteValidatesShape(t *testing.T) {
	s := tinySuite()
	s.Name = "../escape"
	out := t.TempDir()
	if _, err := RunSuite(s, SuiteRunOptions{OutDir: out}); err == nil {
		t.Fatalf("RunSuite accepted a suite name with path separators")
	} else if !strings.Contains(err.Error(), "path separators") {
		t.Fatalf("error %q does not mention path separators", err)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(out), "escape")); !os.IsNotExist(err) {
		t.Fatalf("suite outputs escaped the output directory")
	}
}

// TestRunSuiteMemberError checks that a failing member aborts the suite
// with a named error instead of a partial table.
func TestRunSuiteMemberError(t *testing.T) {
	s := tinySuite()
	s.Grid.Algorithms = []string{"netmax"}
	r, err := s.Resolve(false)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	// Sabotage a resolved member past validation: Run re-validates and
	// must surface the member name in the error.
	r.Runs[0].Manifest.Model = "NoSuchModel"
	name := r.Runs[0].Manifest.Name
	if _, err := RunSuite(r, SuiteRunOptions{}); err == nil {
		t.Fatalf("RunSuite accepted a broken member")
	} else if !strings.Contains(err.Error(), name) {
		t.Fatalf("error %q does not name the failing run %q", err, name)
	}
}

// TestSuiteTableTimeToLoss pins the time-to-loss semantics: the first
// curve sample at or below the target, missing for runs that never reach
// it.
func TestSuiteTableTimeToLoss(t *testing.T) {
	s := &Suite{Name: "t", Output: &SuiteOutputSpec{TargetLoss: 0.5}}
	s.Runs = []SuiteMember{
		{Arm: "a", Manifest: &Manifest{Name: "r1"}},
		{Arm: "a", Manifest: &Manifest{Name: "r2"}},
	}
	reports := []*Report{
		{Engine: &engine.Result{
			FinalLoss: 0.2, TotalTime: 6,
			Curve: []engine.Point{{Epoch: 1, Time: 2, Value: 0.9}, {Epoch: 2, Time: 4, Value: 0.5}, {Epoch: 3, Time: 6, Value: 0.2}},
		}},
		{Engine: &engine.Result{
			FinalLoss: 0.8, TotalTime: 4,
			Curve: []engine.Point{{Epoch: 1, Time: 2, Value: 0.9}, {Epoch: 2, Time: 4, Value: 0.8}},
		}},
	}
	table := s.buildTable(reports)
	if len(table.Arms) != 1 {
		t.Fatalf("expected one arm, got %d", len(table.Arms))
	}
	a := table.Arms[0]
	if a.Reached != 1 {
		t.Fatalf("reached = %d, want 1", a.Reached)
	}
	if a.TimeToLoss == nil || a.TimeToLoss.Mean != 4 {
		t.Fatalf("time-to-loss = %+v, want mean 4 (first sample at the target)", a.TimeToLoss)
	}
}
