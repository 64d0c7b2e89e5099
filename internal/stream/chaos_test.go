package stream

import (
	"net/http/httptest"
	"strings"
	"testing"

	"triplec/internal/fault"
	"triplec/internal/metrics"
	"triplec/internal/tasks"
)

// This file holds the PR's acceptance chaos run: four streams serving 500
// frames each under deterministic fault injection — task panics and
// stuck-task hangs on two streams, the other two fault-free — must complete
// with no process crash, quarantine only the faulted streams, keep the
// healthy streams' deadline-miss rate within 2x the fault-free baseline,
// and surface the recovery events through the metrics registry.

const (
	chaosStreams = 4
	chaosFrames  = 500
)

// chaosServerConfig is shared by the baseline and the chaos run so the two
// miss rates are comparable.
func chaosServerConfig(reg *metrics.Registry) ServerConfig {
	return ServerConfig{
		HostWorkers: chaosStreams + 2, // stalled frames hold a worker; keep slack
		Supervise:   true,
		WatchdogMs:  250 * raceScale,
		StallMs:     400 * raceScale,
		MaxRestarts: 3,
		// Low enough that the permanently faulted streams exhaust it within
		// the run and demonstrate quarantine, high enough to show restarts.
		RestartBudget: 4,
		Degrade:       true,
		Metrics:       reg,
	}
}

func chaosStreamSet(t *testing.T, inj *fault.Injector) []Config {
	t.Helper()
	s := testStudy()
	cfgs := make([]Config, chaosStreams)
	for i := 0; i < chaosStreams; i++ {
		name := []string{"faulted-a", "faulted-b", "healthy-a", "healthy-b"}[i]
		sc := mkStream(t, s, name, 100+uint64(i), 0)
		if inj != nil && i < 2 {
			si := inj.ForStream(i)
			sc.Engine.SetTaskHook(si.BeforeTask)
			sc.Source = si.WrapSource(sc.Source)
			sc = withRebuild(t, sc, si.BeforeTask)
		}
		cfgs[i] = sc
	}
	return cfgs
}

func TestChaosRunSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	// Fault-free baseline for the miss-rate comparison.
	srv, err := NewServer(chaosServerConfig(nil), chaosStreamSet(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	base, err := srv.Run(chaosFrames)
	if err != nil {
		t.Fatalf("fault-free baseline failed: %v", err)
	}

	// The chaos run: 5% task panics and 2% stuck-task hangs on streams 0-1
	// (hangs exceed StallMs, forcing stall -> rebuild -> quarantine), plus
	// occasional frame corruption. Streams 2-3 are fault-free.
	inj, err := fault.New(fault.Config{
		Seed:        2026,
		Defaults:    fault.Probs{Panic: 0.05, Hang: 0.02},
		CorruptProb: 0.01,
		HangMs:      800 * raceScale, // far past StallMs: a hang is a stall, not a spike
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err = NewServer(chaosServerConfig(reg), chaosStreamSet(t, inj))
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Run(chaosFrames)
	// The run's error may only report quarantines of the faulted streams.
	if err != nil && !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("chaos run failed beyond quarantine: %v", err)
	}

	counts := inj.Counts()
	if counts.Panics == 0 || counts.Hangs == 0 {
		t.Fatalf("injection plan fired no faults: %+v", counts)
	}
	t.Logf("injected: %v", counts)

	for i, r := range out.Streams {
		st := r.Stats
		faulted := i < 2
		if st.Offered != st.Processed+st.Skipped+st.Failed+st.Abandoned {
			t.Errorf("%s: frame accounting broken: %+v", st.Name, st)
		}
		if !faulted {
			if st.Quarantined || r.Err != nil {
				t.Errorf("healthy stream %s impacted: quarantined=%v err=%v", st.Name, st.Quarantined, r.Err)
			}
			if st.Offered != chaosFrames {
				t.Errorf("healthy stream %s served %d frames, want %d", st.Name, st.Offered, chaosFrames)
			}
			if st.Failed != 0 || st.Restarts != 0 {
				t.Errorf("healthy stream %s shows fault symptoms: %+v", st.Name, st)
			}
			// SLO: miss rate within 2x the fault-free baseline (epsilon
			// floor absorbs tiny-denominator noise).
			baseRate := base.Streams[i].Stats.MissRate()
			if rate := st.MissRate(); rate > 2*baseRate+0.05 {
				t.Errorf("healthy stream %s miss rate %.3f vs baseline %.3f (limit 2x + 0.05)",
					st.Name, rate, baseRate)
			}
			continue
		}
		// Faulted streams: survived task panics as per-frame failures and
		// were eventually quarantined by the hang-induced stalls.
		if st.Failed == 0 {
			t.Errorf("faulted stream %s recorded no failed frames", st.Name)
		}
		if st.Processed == 0 {
			t.Errorf("faulted stream %s processed nothing despite ~73%% clean frames", st.Name)
		}
		if !st.Quarantined {
			t.Errorf("faulted stream %s not quarantined: restarts=%d abandoned=%d", st.Name, st.Restarts, st.Abandoned)
		}
		if st.Restarts == 0 || st.MeanRecoveryMs <= 0 {
			t.Errorf("faulted stream %s shows no recoveries: %+v", st.Name, st)
		}
	}

	// Recovery events must be visible through /metrics.
	rec := httptest.NewRecorder()
	metrics.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`triplec_stream_restarts_total{stream="faulted-a"}`,
		`triplec_stream_quarantines_total{stream="faulted-a"} 1`,
		`triplec_stream_quarantines_total{stream="faulted-b"} 1`,
		`triplec_task_panics_total{stream="faulted-a"}`,
		`triplec_frames_failed_total{stream="faulted-b"}`,
		`triplec_frames_abandoned_total{stream="faulted-a"}`,
		`triplec_stream_quarantines_total{stream="healthy-a"} 0`,
		`triplec_stream_restarts_total{stream="healthy-b"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz reports the quarantined streams and degrades the status.
	hrec := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(hrec, httptest.NewRequest("GET", "/healthz", nil))
	if hrec.Code != 503 {
		t.Errorf("/healthz code %d with quarantined streams, want 503", hrec.Code)
	}
	hbody := hrec.Body.String()
	if !strings.Contains(hbody, `"quarantined"`) || !strings.Contains(hbody, `"degraded"`) {
		t.Errorf("/healthz does not surface the quarantine: %s", hbody)
	}
}

// TestChaosDeterministic: the same fault plan yields the same injected
// fault decisions (the serving interleavings differ, but the per-stream
// injectors draw identical decision streams).
func TestChaosDeterministic(t *testing.T) {
	cfg := fault.Config{Seed: 7, Defaults: fault.Probs{Panic: 0.1, Spike: 0.05}, SpikeMs: 1}
	runOnce := func() fault.Counts {
		inj, err := fault.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := inj.ForStream(0)
		for f := 0; f < 200; f++ {
			for _, task := range []tasks.Name{tasks.NameDetect, tasks.NameMKXExt, tasks.NameENH} {
				func() {
					defer func() { _ = recover() }()
					s.BeforeTask(task, f)
				}()
			}
		}
		return s.Counts()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("identical fault plans diverged: %+v vs %+v", a, b)
	}
	if a.Panics == 0 || a.Spikes == 0 {
		t.Fatalf("plan fired nothing: %+v", a)
	}
}
