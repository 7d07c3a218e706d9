package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"rayfade/internal/server"
	"rayfade/internal/sim"
	"rayfade/internal/stats"
)

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) (benchmarkFile, []byte) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf, data
}

// The names the suite emits are the names BENCHMARK.json declares, with the
// same units, directions and bounds, and the file keeps its format's limits.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bf, data := readBenchmarkFile(t)
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\nthe suite emits:\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%+v\nthe suite emits:\n%+v", bf.PerLayer, perLayer)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the suite runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d in BENCHMARK.json is %+v, the suite's is {%s %s}", i, bf.Workloads[i], w.name, w.why)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	path := regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range bf.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, m := range bf.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range bf.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s has bound %g, below %s's %g; it must have the largest", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower better")
	}
	for _, m := range bf.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer %s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", bf.RunSeconds)
	}
	if n := len(bf.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1 to 16", n)
	}
	for _, p := range bf.Paths {
		if !path.MatchString(p) || p[0] == '/' || bytes.Contains([]byte(p), []byte("..")) {
			t.Errorf("path %q", p)
		}
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings, want 1 to 32", len(bf.Command))
	}
	for _, c := range bf.Command {
		if len(c) > 200 || (len(c) > 0 && c[0] == '/') || bytes.Contains([]byte(c), []byte("..")) {
			t.Errorf("command string %q", c)
		}
	}
}

// Every attribution layer has its attr.<layer>_pct metric and every such
// metric a layer.
func TestAttributionLayersAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		if len(m.Name) > 5 && m.Name[:5] == "attr." {
			declared[m.Name] = true
		}
	}
	for _, layer := range attrLayers {
		name := "attr." + layer + "_pct"
		if !declared[name] {
			t.Errorf("layer %s has no metric %s", layer, name)
		}
		delete(declared, name)
	}
	for name := range declared {
		t.Errorf("metric %s has no attribution layer", name)
	}
}

func TestReportEmitsEveryDeclaredMetric(t *testing.T) {
	rep := newReport(endToEnd)
	rep.attempted = 3
	for _, m := range endToEnd[1:] {
		rep.set(m.Name, 1.5)
	}
	if _, err := rep.result(); err == nil {
		t.Error("a result without setup_s was accepted")
	}
	rep.set("setup_s", math.NaN())
	if _, err := rep.result(); err == nil {
		t.Error("a NaN metric was accepted")
	}
	rep.set("setup_s", 0.25)
	res, err := rep.result()
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line %s, want exactly correct, attempted, failed, metrics", line)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) || res.Metrics["setup_s"].Unit != "s" {
		t.Errorf("result %+v", res)
	}
	rep.problem("wrong answer")
	if res, _ := rep.result(); res.Correct {
		t.Error("a run with a problem reported correct")
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	rep.set("attr.http_pct", 1)
}

// The replay of a Figure-1 replication must be the replication: merged in
// order, the replays give the run's curves bit for bit.
func TestReplayFigure1ReproducesTheRun(t *testing.T) {
	cfg := fig1Config(9, 3, 2)
	cfg.Links, cfg.TransmitSeeds, cfg.FadingSeeds, cfg.Probs = 30, 2, 2, stats.Linspace(0.2, 1, 4)
	res, err := sim.RunFigure1Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := map[string]*stats.Series{}
	draws := 0.0
	for r := 0; r < cfg.Networks; r++ {
		curves, c, err := replayFigure1(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		draws += c.draws
		for name, s := range curves {
			if merged[name] == nil {
				merged[name] = stats.NewSeries(cfg.Probs)
			}
			merged[name].Merge(s)
		}
	}
	got, _ := json.Marshal(merged)
	want, _ := json.Marshal(res.Curves)
	if !bytes.Equal(got, want) {
		t.Error("replayed curves differ from the run's")
	}
	if draws == 0 {
		t.Error("replay counted no exponential draws")
	}
}

// The estimate replay reproduces a daemon reply and rejects a wrong one.
func TestReplayEstimateMatchesDaemon(t *testing.T) {
	topos, err := newTopologies(4, "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := startDaemon(server.Config{})
	defer d.close()
	tf := newTraffic(d)
	body, _ := json.Marshal(estimateRequest{Network: topos[0].canon, Samples: 50, Seed: 77})
	req := request{kind: estimateInline, path: "/v1/estimate", body: body, topo: &topos[0], key: -1, seed: 77, samples: 50}
	r := d.post(context.Background(), req.path, req.body, "")
	if r.err != nil || r.status != 200 {
		t.Fatalf("estimate: %d %v %s", r.status, r.err, r.body)
	}
	if err := tf.check(req, r); err != nil {
		t.Fatal(err)
	}
	c, err := tf.replay(req, r, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.calls != 50 || c.layer["fading"] <= 0 || c.layer["netio"] <= 0 {
		t.Errorf("replay costs %+v", c)
	}
	var got estimateResponse
	json.Unmarshal(r.body, &got)
	got.Mean += 1e-9
	if _, err := replayEstimate(topos[0].net, got); err == nil {
		t.Error("a perturbed reply passed the replay check")
	}
}
