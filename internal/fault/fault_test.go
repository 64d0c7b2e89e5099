package fault

import (
	"testing"
	"time"

	"triplec/internal/frame"
	"triplec/internal/tasks"
)

func mustInjector(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.SetSleep(func(time.Duration) {})
	return in
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Defaults: Probs{Panic: -0.1}},
		{Defaults: Probs{Hang: 1.5}},
		{Defaults: Probs{Panic: 0.6, Hang: 0.6}}, // sums over 1
		{CorruptProb: -1},
		{HangMs: -5},
		{SpikeMs: -5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

// runTasks drives the injector through a fixed task-invocation sequence and
// returns the recovered injected panics.
func runTasks(in *Injector, frames int) (panics int) {
	seq := []tasks.Name{tasks.NameDetect, tasks.NameRDGFull, tasks.NameMKXExt, tasks.NameENH}
	for f := 0; f < frames; f++ {
		for _, task := range seq {
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(InjectedPanic); !ok {
							panic(r)
						}
						panics++
					}
				}()
				in.BeforeTask(task, f)
			}()
		}
	}
	return panics
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Defaults: Probs{Panic: 0.05, Hang: 0.02, Spike: 0.1}}
	a := mustInjector(t, cfg)
	b := mustInjector(t, cfg)
	pa := runTasks(a, 500)
	pb := runTasks(b, 500)
	if pa != pb || a.Counts() != b.Counts() {
		t.Fatalf("same seed diverged: %d/%v vs %d/%v", pa, a.Counts(), pb, b.Counts())
	}
	if pa == 0 || a.Counts().Hangs == 0 || a.Counts().Spikes == 0 {
		t.Fatalf("no faults fired over 2000 invocations: %v", a.Counts())
	}
	// Approximate rates: 2000 draws at 5% panic / 2% hang / 10% spike.
	c := a.Counts()
	if c.Panics < 50 || c.Panics > 160 {
		t.Errorf("panic count %d far from 100 expected", c.Panics)
	}
	if c.Hangs < 15 || c.Hangs > 70 {
		t.Errorf("hang count %d far from 40 expected", c.Hangs)
	}
}

func TestInjectorPerStreamIndependence(t *testing.T) {
	base := mustInjector(t, Config{Seed: 7, Defaults: Probs{Panic: 0.1}})
	s0a, s0b := base.ForStream(0), base.ForStream(0)
	s1 := base.ForStream(1)
	for _, in := range []*Injector{s0a, s0b, s1} {
		in.SetSleep(func(time.Duration) {})
	}
	if pa, pb := runTasks(s0a, 300), runTasks(s0b, 300); pa != pb {
		t.Fatalf("stream-0 injectors diverged: %d vs %d", pa, pb)
	}
	if runTasks(s1, 300) == 0 {
		t.Fatal("stream 1 never faulted")
	}
}

func TestWrapSourceCorruptsCopies(t *testing.T) {
	orig := frame.New(64, 64)
	orig.Fill(1000)
	src := func(int) *frame.Frame { return orig }
	in := mustInjector(t, Config{Seed: 9, CorruptProb: 1})
	wrapped := in.WrapSource(src)
	f := wrapped(0)
	if f == orig {
		t.Fatal("corrupted frame aliases the source frame")
	}
	if f.Equal(orig) {
		t.Fatal("frame not corrupted despite probability 1")
	}
	for _, px := range orig.Pix {
		if px != 1000 {
			t.Fatal("source frame mutated")
		}
	}
	if in.Counts().Corrupted != 1 {
		t.Fatalf("corrupted count %d, want 1", in.Counts().Corrupted)
	}
	// Zero probability: the wrapper is the identity (no copy, no draw).
	clean := mustInjector(t, Config{Seed: 9})
	if got := clean.WrapSource(src)(0); got != orig {
		t.Fatal("zero-probability wrapper copied the frame")
	}
	if clean.WrapSource(nil) != nil {
		t.Fatal("nil source not passed through")
	}
}

func TestInjectedPanicString(t *testing.T) {
	p := InjectedPanic{Task: tasks.NameENH, Frame: 12}
	if p.String() != "injected panic in ENH at frame 12" {
		t.Fatalf("unexpected string %q", p.String())
	}
}
