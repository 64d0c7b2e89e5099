package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMiniatureWorkloads runs a 40-frame 32x32 miniature of every workload's
// configuration through the same code path as the command and checks what
// the benchmark promises about its own output.
func TestMiniatureWorkloads(t *testing.T) {
	for _, full := range workloads {
		w := full.miniature()
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			res, err := runWorkload(w, options{seed: 11, reps: 1, e2e: true, layers: true, outDir: out})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("digest/accounting check failed: %d failed, problems %v", res.Failed, res.Problems)
			}
			if want := 2 * w.streams * w.frames; res.Attempted != want { // one untraced + one traced repetition
				t.Errorf("attempted %d frames, want %d", res.Attempted, want)
			}

			// Every named metric is printed exactly once, with a unit and a
			// finite value.
			var buf bytes.Buffer
			printResult(&buf, res)
			seen := map[string]int{}
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) != 4 || f[0] != w.name {
					t.Fatalf("malformed metric line %q", sc.Text())
				}
				if !metricName.MatchString(f[1]) {
					t.Errorf("metric name %q does not match %v", f[1], metricName)
				}
				if v, err := strconv.ParseFloat(f[2], 64); err != nil || !finite(v) {
					t.Errorf("%s: value %q is not a finite number", f[1], f[2])
				}
				seen[f[1]]++
			}
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if seen[d.name] != 1 {
					t.Errorf("metric %s printed %d times, want once", d.name, seen[d.name])
				}
				if d.unit == "" {
					t.Errorf("metric %s has no unit", d.name)
				}
			}
			if len(seen) != len(endToEnd)+len(perLayer) {
				t.Errorf("printed %d distinct metrics, want %d", len(seen), len(endToEnd)+len(perLayer))
			}
			for _, d := range endToEnd {
				if res.EndToEnd[d.name].Value == 0 {
					t.Errorf("end-to-end metric %s is zero", d.name)
				}
			}

			var line bytes.Buffer
			if err := printDriverLine(&line, res); err != nil {
				t.Fatal(err)
			}
			var drv struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &drv); err != nil {
				t.Fatalf("driver line is not JSON: %v", err)
			}
			if drv.Correct == nil || drv.Attempted == nil || drv.Failed == nil || len(drv.Metrics) != len(seen) {
				t.Errorf("driver line incomplete: %s", line.String())
			}

			checkSpans(t, filepath.Join(out, w.name+".trace.json"))
		})
	}
}

// checkSpans reads a trace file back and checks that every child span lies
// inside its parent and shares its stream and frame.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Names   []string
		Columns []string
		Spans   [][6]int64
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if got := strings.Join(tf.Columns, ","); got != "name,start,end,parent,stream,frame" {
		t.Fatalf("trace columns %q", got)
	}
	children := 0
	for i, sp := range tf.Spans {
		name, start, end, parent, stream, frame := sp[0], sp[1], sp[2], sp[3], sp[4], sp[5]
		if name < 0 || int(name) >= len(tf.Names) || end < start {
			t.Fatalf("span %d malformed: %v", i, sp)
		}
		if parent < 0 {
			continue
		}
		children++
		if int(parent) >= i {
			t.Fatalf("span %d names a parent %d that does not precede it", i, parent)
		}
		p := tf.Spans[parent]
		if start < p[1] || end > p[2] || stream != p[4] || frame != p[5] {
			t.Errorf("span %d %v (%s) not nested in parent %v (%s)", i, sp, tf.Names[name], p, tf.Names[p[0]])
		}
	}
	if children == 0 {
		t.Error("trace has no nested spans")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and metric
// lists equal to what the program emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s / %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(section string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, program emits %d", section, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, program has %s/%s/%s", section, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || math.Abs(*g.Bound-d.bound) > 1e-12 || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json %v, program %v (must be in (0, 0.25])", d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", d.name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
}

func TestPingPong(t *testing.T) {
	got := make([]int, 0, 9)
	for i := 0; i < 9; i++ {
		got = append(got, pingPong(i, 4))
	}
	want := []int{0, 1, 2, 3, 2, 1, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pingPong order %v, want %v", got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	var bound float64
	for _, d := range endToEnd {
		if d.name == "frames_per_s" {
			bound = d.bound
		}
	}
	doc := func(fps float64, reps ...float64) *document {
		e2e := map[string]*measured{}
		for _, d := range endToEnd {
			e2e[d.name] = &measured{Value: 1, Reps: []float64{1, 1, 1}}
		}
		e2e["frames_per_s"] = &measured{Value: fps, Reps: reps}
		return &document{Workloads: []*workloadResult{{Name: "w", EndToEnd: e2e}}}
	}
	base := doc(100, 99, 100, 101)
	var out bytes.Buffer
	if near := 100 * (1 + bound/2); !compareDocuments(&out, base, doc(near, near-1, near, near+1)) {
		t.Errorf("half a bound apart must pass:\n%s", out.String())
	}
	out.Reset()
	if far := 100 * (1 - 1.5*bound); compareDocuments(&out, base, doc(far, far-1, far, far+1)) {
		t.Error("one and a half bounds apart must fail")
	}
	if !strings.Contains(out.String(), "DIFFERS (b worse)") {
		t.Errorf("missing verdict:\n%s", out.String())
	}
	out.Reset()
	if !compareDocuments(&out, doc(100, 100*(1-2*bound), 100, 100*(1+2*bound)), doc(101, 100, 101, 102)) {
		t.Error("a noisy but close pair must not fail")
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread beyond the bound must read unresolved, not ok:\n%s", out.String())
	}
}
