package smartapp

import (
	"math"
	"testing"

	"repro/internal/simarch"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func loopWith(spec workloads.PatternSpec, name string) *trace.Loop {
	l := workloads.Generate(name, spec, 1)
	return l
}

func denseSpec() workloads.PatternSpec {
	return workloads.PatternSpec{Dim: 3000, SPPercent: 30, CHR: 0.9, MO: 2, Locality: 0.8, Work: 20, Seed: 1}
}

func sparseSpec() workloads.PatternSpec {
	return workloads.PatternSpec{Dim: 200000, SPPercent: 0.15, CHR: 0.12, MO: 28, Locality: 0.3, Work: 300, RunLength: 2, Seed: 2}
}

func TestRuntimeProducesCorrectResult(t *testing.T) {
	r := NewRuntime(DefaultPlatform(8))
	l := loopWith(denseSpec(), "dense")
	out := r.Execute(l)
	want := l.RunSequential()
	for i := range want {
		if math.Abs(out.Result[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("element %d: %g vs %g", i, out.Result[i], want[i])
		}
	}
	if out.Decision.Action != Reselected {
		t.Errorf("first invocation should select a scheme, got %v", out.Decision.Action)
	}
	if out.Decision.Scheme == "" {
		t.Error("decision must name the installed scheme")
	}
}

func TestRuntimeKeepsSchemeOnStablePattern(t *testing.T) {
	r := NewRuntime(DefaultPlatform(8))
	l := loopWith(denseSpec(), "stable")
	r.Execute(l)
	out := r.Execute(l) // identical pattern: no re-selection
	if out.Decision.Action == Reselected || out.Decision.Action == Reconfigured {
		t.Errorf("stable pattern must not re-select, got %v", out.Decision.Action)
	}
}

func TestRuntimeReselectsOnPhaseChange(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptive pipeline over a phase change (~13s under -race); run without -short")
	}
	r := NewRuntime(DefaultPlatform(8))
	dense := loopWith(denseSpec(), "phase")
	r.Execute(dense)
	first := r.CurrentScheme()

	sparse := loopWith(sparseSpec(), "phase")
	out := r.Execute(sparse)
	if out.Decision.Action != Reselected {
		t.Fatalf("drastic pattern change must re-select, got %v", out.Decision.Action)
	}
	if r.CurrentScheme() == first {
		t.Errorf("scheme should change across the phase change (still %s)", first)
	}
	if r.CurrentScheme() != "hash" {
		t.Errorf("a Spice-like pattern should select hash, got %s", r.CurrentScheme())
	}
}

func TestRuntimeHardwarePath(t *testing.T) {
	p := DefaultPlatform(8)
	p.PCLR = true
	p.PCLRController = simarch.Hardwired
	r := NewRuntime(p)
	l := loopWith(denseSpec(), "hw")
	out := r.Execute(l)
	if !out.Configuration.UseHardware {
		t.Fatal("PCLR platform should configure the hardware path for an add reduction")
	}
	if out.Decision.Action != Reconfigured {
		t.Errorf("hardware installation should be a Reconfigured action, got %v", out.Decision.Action)
	}
	if out.Decision.Scheme != "pclr-Hw" {
		t.Errorf("decision scheme = %q", out.Decision.Scheme)
	}
	// Semantics still hold.
	want := l.RunSequential()
	for i := range want {
		if math.Abs(out.Result[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("hardware path broke semantics at %d", i)
		}
	}
}

func TestRuntimeHardwareFallbackOnUnsupportedOp(t *testing.T) {
	p := DefaultPlatform(4)
	p.PCLR = true
	r := NewRuntime(p)
	l := loopWith(workloads.PatternSpec{Dim: 5000, SPPercent: 30, CHR: 0.3, MO: 1, Locality: 0.8, Work: 10, Seed: 3}, "mul")
	l.Op = trace.OpMul // the directory units cannot combine products
	out := r.Execute(l)
	if out.Configuration.UseHardware {
		t.Fatal("multiply reduction must fall back to software")
	}
	if out.Decision.Scheme == "" {
		t.Error("fallback must install a software scheme")
	}
}

func TestEvaluatorJudgement(t *testing.T) {
	e := DefaultEvaluator()
	if e.Judge(0.05) != Kept {
		t.Error("5% deviation should be Kept")
	}
	if e.Judge(0.2) != Tuned {
		t.Error("20% deviation should be Tuned")
	}
	if e.Judge(0.8) != Reselected {
		t.Error("80% deviation should be Reselected")
	}
	if d := e.Deviation(100, 130); math.Abs(d-0.3) > 1e-12 {
		t.Errorf("Deviation = %g", d)
	}
	if e.Deviation(0, 10) != 0 {
		t.Error("zero prediction deviation should be 0")
	}
}

func TestPredictorRanksAllSchemes(t *testing.T) {
	pred := Predictor{Procs: 8, Cfg: DefaultPlatform(8).Cfg}
	l := loopWith(denseSpec(), "pred")
	ms := pred.Predict(l)
	if len(ms) != 5 {
		t.Fatalf("predicted %d schemes, want 5", len(ms))
	}
	if _, err := pred.PredictScheme(l, "rep"); err != nil {
		t.Errorf("PredictScheme(rep): %v", err)
	}
	if _, err := pred.PredictScheme(l, "nope"); err == nil {
		t.Error("unknown scheme must error")
	}
}

func TestHistoryAccumulates(t *testing.T) {
	r := NewRuntime(DefaultPlatform(4))
	l := loopWith(denseSpec(), "hist")
	r.Execute(l)
	r.Execute(l)
	if len(r.History()) != 2 {
		t.Errorf("history length %d, want 2", len(r.History()))
	}
}

func TestActionString(t *testing.T) {
	names := map[Action]string{Kept: "kept", Tuned: "tuned", Reselected: "reselected", Reconfigured: "reconfigured"}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

func TestNewRuntimePanicsWithoutProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRuntime(Platform{})
}
