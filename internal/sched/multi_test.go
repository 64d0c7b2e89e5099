package sched

import (
	"testing"

	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/platform"
	"triplec/internal/tasks"
)

func TestCoresUsed(t *testing.T) {
	if CoresUsed(partition.Serial()) != 1 {
		t.Fatal("serial mapping must use one core")
	}
	m := partition.Serial().With(tasks.NameRDGFull, 4).With(tasks.NameENH, 2)
	if CoresUsed(m) != 4 {
		t.Fatalf("CoresUsed = %d, want 4 (peak, not sum)", CoresUsed(m))
	}
}

func TestSetCoreBudgetValidation(t *testing.T) {
	m, err := NewManager(trainedPredictor(t), platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCoreBudget(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if err := m.SetCoreBudget(9); err == nil {
		t.Fatal("budget above machine size accepted")
	}
	if err := m.SetCoreBudget(4); err != nil {
		t.Fatal(err)
	}
	if m.CoreBudget() != 4 {
		t.Fatal("budget not stored")
	}
}

func TestCoreBudgetLimitsPlans(t *testing.T) {
	p := trainedPredictor(t)
	m, err := NewManager(p, platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCoreBudget(2); err != nil {
		t.Fatal(err)
	}
	m.BudgetMs = 1 // force maximal striping
	dec := m.Plan()
	if used := CoresUsed(dec.Mapping); used > 2 {
		t.Fatalf("plan uses %d cores, budget is 2 (%v)", used, dec.Mapping)
	}
}

func TestRunMultiAppValidation(t *testing.T) {
	if _, err := RunMultiApp(nil, 5); err == nil {
		t.Fatal("no apps accepted")
	}
	p := trainedPredictor(t)
	m, _ := NewManager(p, platform.Blackford())
	app := App{Name: "a", Manager: m}
	if _, err := RunMultiApp([]App{app}, 5); err == nil {
		t.Fatal("incomplete app accepted")
	}
}

func TestRunMultiAppBudgetOverflow(t *testing.T) {
	mkApp := func(name string, seed uint64, budget int) App {
		p := trainedPredictor(t)
		m, err := NewManager(p, platform.Blackford())
		if err != nil {
			t.Fatal(err)
		}
		if budget > 0 {
			if err := m.SetCoreBudget(budget); err != nil {
				t.Fatal(err)
			}
		}
		seq := synthSeq(t, seed)
		return App{
			Name: name, Engine: newEngine(t), Manager: m,
			Source:      func(i int) *frame.Frame { f, _ := seq.Frame(i); return f },
			FramePixels: 128 * 128,
		}
	}
	// Two whole-machine apps cannot share an 8-core machine.
	apps := []App{mkApp("a", 1, 0), mkApp("b", 2, 0)}
	if _, err := RunMultiApp(apps, 3); err == nil {
		t.Fatal("over-committed machine accepted")
	}
}

// TestMultiAppSharesPlatform is the paper's "execute more functions on the
// same platform" claim: two independent imaging functions, each granted
// half the machine, both keep a bounded latency gap while their combined
// peak core demand never exceeds the platform.
func TestMultiAppSharesPlatform(t *testing.T) {
	mkApp := func(name string, seed uint64) App {
		p := trainedPredictor(t)
		m, err := NewManager(p, platform.Blackford())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetCoreBudget(4); err != nil {
			t.Fatal(err)
		}
		seq := synthSeq(t, seed)
		return App{
			Name: name, Engine: newEngine(t), Manager: m,
			Source:      func(i int) *frame.Frame { f, _ := seq.Frame(i); return f },
			FramePixels: 128 * 128,
		}
	}
	apps := []App{mkApp("angio-1", 1111), mkApp("angio-2", 2222)}
	res, err := RunMultiApp(apps, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerApp) != 2 {
		t.Fatalf("apps = %d", len(res.PerApp))
	}
	for i, peak := range res.PeakCores {
		if peak > 8 {
			t.Fatalf("frame %d: combined demand %d exceeds the machine", i, peak)
		}
	}
	for ai, r := range res.PerApp {
		if len(r.Output) != 60 {
			t.Fatalf("app %d output length %d", ai, len(r.Output))
		}
		gap, err := wva(r.Output)
		if err != nil {
			t.Fatal(err)
		}
		if gap > 0.6 {
			t.Fatalf("app %d worst-vs-avg gap %.2f too large under core budget", ai, gap)
		}
		if r.Regulator.OverrunRate(r.Processing) > 0.3 {
			t.Fatalf("app %d overruns too often", ai)
		}
	}
}

func wva(series []float64) (float64, error) {
	mean, worst := 0.0, series[0]
	for _, v := range series {
		mean += v
		if v > worst {
			worst = v
		}
	}
	mean /= float64(len(series))
	return (worst - mean) / mean, nil
}
