package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/fault"
	"triplec/internal/slo"
	"triplec/internal/tasks"
)

// TestBadRunSizesRejected: every command rejects a bad run size, budget,
// fault count or spike window before it trains, with one error line and
// nothing on stdout.
func TestBadRunSizesRejected(t *testing.T) {
	expectRejected(t, [][]string{
		{"serve", "-streams", "0"},
		{"serve", "-frames", "-3"},
		{"serve", "-train", "0"},
		{"serve", "-budget-ms", "-4"},
		{"serve", "-mapper", "fastest"},
		{"chaos", "-frames", "-3"},
		{"chaos", "-streams", "2", "-faulted", "3"},
		{"chaos", "-panic-prob", "2"},
		{"promote", "-streams", "-3", "-frames", "5"},
		{"promote", "-frames", "-5"},
		{"promote", "-budget-ms", "-4"},
		{"promote", "-train", "-1"},
		{"slo", "-streams", "-3"},
		{"slo", "-frames", "-5"},
		{"slo", "-budget-ms", "-4"},
		{"slo", "-spike", "-spike-from", "-1"},
		{"slo", "-spike", "-spike-from", "30", "-spike-to", "30"},
		{"slo", "-spike", "-spike-from", "0", "-spike-to", "0"},
	})
}

// TestBadServerShapeRejected: serve and chaos check the server's shape —
// core count, rebalance cadence, shedding ratio, watchdog and stall limit —
// before they train, and promote judges its spike plan whatever its sign.
func TestBadServerShapeRejected(t *testing.T) {
	expectRejected(t, [][]string{
		{"serve", "-rebalance", "-1"},
		{"serve", "-cores", "-2"},
		{"serve", "-skip-over", "-1"},
		{"serve", "-skip-over", "NaN"},
		{"chaos", "-watchdog-ms", "-5"},
		{"chaos", "-stall-ms", "100"}, // not past the 250 ms watchdog
		{"chaos", "-max-restarts", "-1"},
		{"promote", "-spike-prob", "-0.5", "-frames", "5"},
		{"promote", "-spike-prob", "NaN", "-frames", "5"},
		{"promote", "-spike-ms", "-1", "-frames", "5"},
		{"promote", "-spike-prob", "0.1", "-spike-ms", "NaN", "-frames", "5"},
	})
}

// expectRejected runs each argument list and requires it to fail with one
// error line prefixed with its command, having printed nothing — in
// particular no training announcement.
func expectRejected(t *testing.T, argLists [][]string) {
	t.Helper()
	for _, args := range argLists {
		var out bytes.Buffer
		err := dispatch(args, &out)
		switch {
		case err == nil:
			t.Errorf("%v accepted", args)
		case !strings.HasPrefix(err.Error(), "triplec "+args[0]+": ") || strings.Contains(err.Error(), "\n"):
			t.Errorf("%v: error %q is not one line prefixed with its command", args, err)
		case out.Len() > 0:
			t.Errorf("%v: printed before failing:\n%s", args, out.String())
		}
	}
}

// layerLevels is the level count of each optional-layer factor of
// TestDeploymentLayerCombinations, in the order of deploymentCase's digits.
var layerLevels = []int{
	2, // shadow: off, on
	3, // predictor: baseline, auto, miscal
	3, // SLO: off, on, with exemplars
	2, // flight recorder: off, on
	3, // faults: none, panics/spikes/corruption, and breakers
	3, // supervision: none, supervise, supervise + degrade
	2, // mapper: greedy, optimizer
	2, // metrics registry: off, on
}

// allPairs greedily picks cases from the full product of layerLevels until
// every pair of levels of every two factors is covered; valid filters out
// impossible cases. Deterministic: ties go to the first case.
func allPairs(valid func([]int) bool) [][]int {
	var all [][]int
	var walk func(c []int)
	walk = func(c []int) {
		if len(c) == len(layerLevels) {
			if valid(c) {
				all = append(all, append([]int(nil), c...))
			}
			return
		}
		for l := 0; l < layerLevels[len(c)]; l++ {
			walk(append(c, l))
		}
	}
	walk(nil)
	type pair struct{ f, lf, g, lg int }
	covered := map[pair]bool{}
	newPairs := func(c []int) int {
		n := 0
		for f := range c {
			for g := f + 1; g < len(c); g++ {
				if !covered[pair{f, c[f], g, c[g]}] {
					n++
				}
			}
		}
		return n
	}
	var picked [][]int
	for {
		best, bestN := -1, 0
		for i, c := range all {
			if n := newPairs(c); n > bestN {
				best, bestN = i, n
			}
		}
		if best < 0 {
			return picked
		}
		c := all[best]
		for f := range c {
			for g := f + 1; g < len(c); g++ {
				covered[pair{f, c[f], g, c[g]}] = true
			}
		}
		picked = append(picked, c)
	}
}

// deploymentCase fills the deployment the levels of one case describe:
// two streams of 20 frames, the first faulted when faults are on.
func deploymentCase(c []int, dir string) experiments.Deployment {
	d := experiments.Deployment{
		Train: 1, Streams: 2, Frames: 20, Seed: 5,
		Shadow:    c[0] == 1,
		Predictor: []string{"baseline", "auto", "miscal"}[c[1]],
		Mapper:    []string{"greedy", "optimizer"}[c[6]],
		Metrics:   c[7] == 1,
	}
	if c[2] > 0 {
		d.SLO = &slo.Config{}
		d.SLOExemplars = c[2] == 2
	}
	if c[3] == 1 {
		d.TraceDir, d.TraceRelErr = dir, 0.75
	}
	if c[4] > 0 {
		// No hangs, and the spikes never sleep (see the test): nothing here
		// waits on the wall clock.
		d.Fault = &fault.Config{Seed: 9, Defaults: fault.Probs{Panic: 0.05, Spike: 0.05}, CorruptProb: 0.05}
		d.Faulted = 1
		d.Breaker = c[4] == 2
	}
	if c[5] > 0 {
		d.Supervise, d.Degrade = true, c[5] == 2
		d.WatchdogMs, d.StallMs = 5000, 10000
	}
	return d
}

// TestDeploymentLayerCombinations builds an all-pairs covering array of the
// optional layers through Deployment.Build and assemble, serves 20 frames
// of each and checks frame accounting, healthy streams, which handles exist
// and the metric families the registry holds.
func TestDeploymentLayerCombinations(t *testing.T) {
	cases := allPairs(func(c []int) bool { return c[2] < 2 || c[7] == 1 }) // exemplars need the registry
	if len(cases) < 9 || len(cases) > 16 {
		t.Fatalf("covering array of %d cases, want 9..16", len(cases))
	}
	for _, c := range cases {
		name := fmt.Sprint(c)
		d := deploymentCase(c, filepath.Join(t.TempDir(), "traces"))
		b, srv, err := assemble(d, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Injector != nil {
			b.Injector.SetSleep(func(time.Duration) {})
		}
		res, _ := srv.Run(d.Frames)
		for i, s := range res.Streams {
			st := s.Stats
			if got := st.Processed + st.Skipped + st.Failed + st.Abandoned; got != st.Offered {
				t.Errorf("%s: %s accounts for %d of %d offered frames", name, st.Name, got, st.Offered)
			}
			if i >= d.Faulted && (s.Err != nil || st.Quarantined) {
				t.Errorf("%s: healthy stream %s impacted: %v", name, st.Name, s.Err)
			}
		}

		promoting := d.Predictor != "baseline"
		for _, h := range []struct {
			what      string
			has, want bool
		}{
			{"controller", b.Controller != nil, promoting},
			{"tracker", b.Tracker != nil, d.SLO != nil},
			{"flight recorder", b.Flight != nil, d.TraceDir != ""},
			{"injector", b.Injector != nil, d.Fault != nil},
			{"registry", b.Registry != nil, d.Metrics},
			{"optimizer", b.Mapper != nil, d.Mapper == "optimizer"},
		} {
			if h.has != h.want {
				t.Errorf("%s: %s present=%v, want %v", name, h.what, h.has, h.want)
			}
		}
		for i, st := range b.Streams {
			faulted := i < d.Faulted
			if (st.Board != nil) != (d.Shadow || promoting) || (st.Hook != nil) != faulted ||
				(st.Gate != nil) != (faulted && d.Breaker) || st.Rebuild == nil {
				t.Errorf("%s: stream %s board=%v hook=%v gate=%v rebuild=%v",
					name, st.Name, st.Board != nil, st.Hook != nil, st.Gate != nil, st.Rebuild != nil)
			}
		}

		if b.Registry == nil {
			continue
		}
		families := map[string]bool{}
		for _, f := range b.Registry.Snapshot().Families {
			families[f.Name] = true
		}
		for family, on := range map[string]bool{
			"triplec_frames_processed_total": true,
			"triplec_go_goroutines":          true,
			"triplec_shadow_frames_total":    d.Shadow || promoting,
			"triplec_promote_state":          promoting,
			"triplec_slo_frames_total":       d.SLO != nil,
		} {
			if families[family] != on {
				t.Errorf("%s: registry has %s = %v, want %v", name, family, families[family], on)
			}
		}
	}
}

// TestRebuildKeepsFaultWiring: the engine a faulted stream's Rebuild returns
// still carries the injector's hook (its spikes fire) and the breaker's
// gate (the circuits opened on the old engine suppress tasks on the new
// one); a healthy stream's rebuilt engine carries neither.
func TestRebuildKeepsFaultWiring(t *testing.T) {
	b, err := experiments.Deployment{
		Train: 1, Streams: 2, Frames: 1, Seed: 5, Faulted: 1, Breaker: true,
		Fault: &fault.Config{Seed: 3, Defaults: fault.Probs{Spike: 1}},
	}.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Injector.SetSleep(func(time.Duration) {})
	gated := []tasks.Name{tasks.NameRDGFull, tasks.NameRDGROI, tasks.NameGWExt, tasks.NameZOOM}
	for _, task := range gated {
		for i := 0; i < 8; i++ {
			b.Streams[0].Gate.Record(task, false)
		}
	}
	for i, st := range b.Streams {
		eng, mgr, err := st.Rebuild()
		if err != nil {
			t.Fatal(err)
		}
		before := b.Injector.Counts().Spikes
		var obs core.Observation
		_, rep, err := mgr.Step(eng, st.Source(0), true, b.Study.FramePixels(), &obs)
		if err != nil {
			t.Fatal(err)
		}
		spiked, suppressed := b.Injector.Counts().Spikes > before, len(rep.Suppressed) > 0
		if faulted := i < b.Deployment.Faulted; spiked != faulted || suppressed != faulted {
			t.Errorf("rebuilt %s: hook fired=%v, gate suppressed %v; want both %v",
				st.Name, spiked, rep.Suppressed, faulted)
		}
	}
}

// TestServeChaosShareReport: serve and chaos print the end-of-run aggregate
// line and the flight recorder's dump listing in one format.
func TestServeChaosShareReport(t *testing.T) {
	aggregate := regexp.MustCompile(`(?m)^aggregate: [0-9.]+ frames/s over [0-9]+ ms wall clock, [0-9]+ rebalances, final core split \[[0-9 ]+\]$`)
	listing := regexp.MustCompile(`(?m)^flight recorder: ([0-9]+) dump\(s\) in (.+)$`)
	dump := regexp.MustCompile(`(?m)^  trace-[0-9]{4}-[a-z_]+\.json  reason=[a-z_]+ stream=[0-9]+ frame=[0-9]+ frames=[0-9]+ events=[0-9]+$`)
	for _, args := range [][]string{
		{"serve", "-streams", "2", "-frames", "20", "-train", "1", "-budget-ms", "1"},
		{"chaos", "-streams", "2", "-faulted", "1", "-frames", "20", "-train", "1", "-hang-prob", "0"},
	} {
		dir := filepath.Join(t.TempDir(), "traces")
		var out bytes.Buffer
		if err := dispatch(append(args, "-trace-dir", dir), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		text := out.String()
		if n := len(aggregate.FindAllString(text, -1)); n != 1 {
			t.Errorf("%s printed %d aggregate lines:\n%s", args[0], n, text)
		}
		m := listing.FindStringSubmatch(text)
		if m == nil || m[2] != dir {
			t.Fatalf("%s printed no flight-recorder listing for %s:\n%s", args[0], dir, text)
		}
		if got := fmt.Sprint(len(dump.FindAllString(text, -1))); got != m[1] {
			t.Errorf("%s lists %s dump lines under a count of %s:\n%s", args[0], got, m[1], text)
		}
	}
}
