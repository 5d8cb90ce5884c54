// Package smartapp implements the SmartApps runtime of Sections 1–2: the
// adaptive feedback loop that a compiler would embed into the application
// executable, and the ToolBox it draws on — a performance Evaluator,
// a Predictor, an Optimizer and a Configurer.
//
// The runtime receives reduction loops (the paper's exemplar optimization
// target), characterizes their access pattern with fast sampled methods,
// selects the best implementation from the multi-version library
// (software schemes from package reduction, or PCLR hardware when the
// platform offers it), executes it, monitors the outcome against the
// prediction, and escalates through the paper's nested adaptation levels:
//
//	small deviation  -> run-time tuning (keep the scheme, adjust scheduling)
//	pattern change   -> algorithm re-selection (multi-version dispatch)
//	hardware present -> machine reconfiguration (program the PCLR directory)
//
// The runtime predicts and monitors in virtual time on the simulated
// Table 1 machine, which is why it is a lab package: the serving stack
// (internal/engine) runs the same characterize-and-recommend step against
// the host descriptor in package core and must not import this one
// (scripts/deps_check.sh).
package smartapp

import (
	"fmt"
	"math"

	"repro/internal/adapt"
	"repro/internal/lab/simred"
	"repro/internal/pattern"
	"repro/internal/pclr"
	"repro/internal/reduction"
	"repro/internal/simarch"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Action is the adaptation level the runtime took on an invocation.
type Action int

const (
	// Kept: the current scheme still matches; no adaptation.
	Kept Action = iota
	// Tuned: small deviation; run-time tuning only (no re-selection).
	Tuned
	// Reselected: the access pattern changed enough to re-run the
	// decision algorithm and switch the multi-version dispatch.
	Reselected
	// Reconfigured: the hardware (PCLR directory controller) was
	// reprogrammed for this loop.
	Reconfigured
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Kept:
		return "kept"
	case Tuned:
		return "tuned"
	case Reselected:
		return "reselected"
	case Reconfigured:
		return "reconfigured"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Predictor estimates the virtual-time cost of running a loop under a
// scheme; it is the ToolBox's performance-model component.
type Predictor struct {
	Procs int
	Cfg   vtime.Config
}

// Predict returns the ranked per-scheme cost estimates.
func (p Predictor) Predict(l *trace.Loop) []simred.Measured {
	return simred.Rank(l, p.Procs, p.Cfg)
}

// PredictScheme returns the predicted cycles for one scheme.
func (p Predictor) PredictScheme(l *trace.Loop, scheme string) (float64, error) {
	for _, m := range p.Predict(l) {
		if m.Scheme == scheme {
			return m.Breakdown.Total(), nil
		}
	}
	return 0, fmt.Errorf("smartapp: unknown scheme %q", scheme)
}

// Evaluator compares measured performance against predictions; it is the
// ToolBox's monitoring component.
type Evaluator struct {
	// TunePastDeviation and ReselectPastDeviation are the two thresholds
	// of the nested feedback loop: below the first the runtime keeps
	// going, between them it tunes, above the second it re-selects.
	TunePastDeviation     float64
	ReselectPastDeviation float64
}

// DefaultEvaluator returns the calibrated thresholds (10% / 40%).
func DefaultEvaluator() Evaluator {
	return Evaluator{TunePastDeviation: 0.10, ReselectPastDeviation: 0.40}
}

// Deviation returns |measured-predicted| / predicted.
func (Evaluator) Deviation(predicted, measured float64) float64 {
	if predicted <= 0 {
		return 0
	}
	return math.Abs(measured-predicted) / predicted
}

// Judge maps a deviation to the adaptation level it warrants.
func (e Evaluator) Judge(dev float64) Action {
	switch {
	case dev <= e.TunePastDeviation:
		return Kept
	case dev <= e.ReselectPastDeviation:
		return Tuned
	default:
		return Reselected
	}
}

// Platform describes what the simulated machine offers; it is the
// system-specific database of the ToolBox.
type Platform struct {
	// Procs is the processor count.
	Procs int
	// Cfg is the cost model of the machine (Table 1 by default).
	Cfg vtime.Config
	// PCLR reports whether the machine's directory controllers implement
	// Private Cache-Line Reduction, and with which controller flavor.
	PCLR           bool
	PCLRController simarch.Controller
}

// DefaultPlatform returns an 8-processor software-only platform.
func DefaultPlatform(procs int) Platform {
	return Platform{Procs: procs, Cfg: vtime.DefaultConfig()}
}

// Configurer turns an optimization decision into a concrete
// configuration: a software scheme or a PCLR hardware programming.
type Configurer struct {
	Platform Platform
}

// Configuration is what the Configurer installs for a loop.
type Configuration struct {
	// UseHardware selects PCLR; otherwise Scheme names the software
	// reduction algorithm.
	UseHardware bool
	Hardware    pclr.HardwareConfig
	Scheme      string
	Why         string
}

// Configure decides between the PCLR hardware path and the recommended
// software scheme. PCLR is preferred whenever the platform has it and the
// loop's operator is supported: it eliminates both the initialization and
// merge phases regardless of the access pattern (Section 5.2); loops the
// directory units cannot combine fall back to software.
func (c Configurer) Configure(l *trace.Loop, rec adapt.Recommendation) Configuration {
	if c.Platform.PCLR {
		hc := pclr.HardwareConfig{Op: l.Op, Controller: c.Platform.PCLRController, ElemBytes: 8}
		if err := hc.Validate(); err == nil {
			return Configuration{
				UseHardware: true,
				Hardware:    hc,
				Why:         "PCLR directory support available and operator supported",
			}
		}
	}
	return Configuration{Scheme: rec.Scheme, Why: rec.Why}
}

// Decision records one invocation's adaptation outcome.
type Decision struct {
	LoopName  string
	Action    Action
	Scheme    string
	Why       string
	Predicted float64
	Measured  float64
	Deviation float64
}

// Runtime is the embedded adaptive run-time system of a SmartApp.
type Runtime struct {
	Platform  Platform
	Evaluator Evaluator
	// SampleStride controls the fast approximate characterization pass.
	SampleStride int

	tracker   pattern.Tracker
	predictor Predictor
	current   reduction.Scheme
	predicted float64
	history   []Decision
	// exec recycles privatization buffers across invocations, the
	// "run-time tuning" adaptation level applied to memory: a loop body
	// invoked K times allocates its private arrays once, not K times.
	exec *reduction.Exec
}

// NewRuntime builds a runtime for the platform.
func NewRuntime(p Platform) *Runtime {
	if p.Procs < 1 {
		panic("smartapp: platform needs at least one processor")
	}
	cfg := p.Cfg
	if cfg.LineBytes == 0 {
		cfg = vtime.DefaultConfig()
	}
	return &Runtime{
		Platform:     Platform{Procs: p.Procs, Cfg: cfg, PCLR: p.PCLR, PCLRController: p.PCLRController},
		Evaluator:    DefaultEvaluator(),
		SampleStride: 8,
		predictor:    Predictor{Procs: p.Procs, Cfg: cfg},
		exec: &reduction.Exec{
			Pool:            reduction.NewBufferPool(),
			MergeBlockElems: reduction.MergeBlockForCache(cfg.L2Bytes, p.Procs),
		},
	}
}

// Outcome is the result of executing one loop invocation adaptively.
type Outcome struct {
	// Result is the reduction array (software path) — always computed,
	// since the runtime's contract is to produce the loop's semantics.
	Result []float64
	// Decision describes what the runtime did and why.
	Decision Decision
	// Configuration is the installed implementation.
	Configuration Configuration
}

// Execute runs one invocation of the loop through the full SmartApps
// pipeline: sampled characterization, change detection, multi-version
// selection (or hardware configuration), execution, and monitoring.
func (r *Runtime) Execute(l *trace.Loop) Outcome {
	prof := pattern.CharacterizeSampled(l, r.Platform.Procs, r.predictor.Cfg.L2Bytes, r.SampleStride)

	var dec Decision
	dec.LoopName = l.Name

	changed := r.tracker.Update(prof)
	rec := adapt.Recommend(prof)
	conf := Configurer{Platform: r.Platform}.Configure(l, rec)

	if changed || r.current == nil {
		if !conf.UseHardware {
			r.current = adapt.SchemeFor(adapt.Recommendation{Scheme: conf.Scheme})
		}
		dec.Action = Reselected
		if conf.UseHardware {
			dec.Action = Reconfigured
		}
		// Predict the selected implementation's cost for monitoring.
		if !conf.UseHardware {
			if p, err := r.predictor.PredictScheme(l, conf.Scheme); err == nil {
				r.predicted = p
			}
		}
	} else {
		dec.Action = Kept
	}

	// Execute. The software path runs the real parallel scheme; the
	// hardware path's semantics are the same reduction (the simulator's
	// functional check lives in package machine), so the runtime
	// produces the result with the fastest software scheme while the
	// "hardware" performs it on the modeled machine.
	var result []float64
	var scheme reduction.Scheme
	if conf.UseHardware {
		scheme = reduction.Rep{} // any correct executor produces the semantics
	} else {
		scheme = r.current
	}
	result = scheme.RunInto(l, r.Platform.Procs, r.exec, nil)

	// Monitor: measure in virtual time and judge the deviation.
	if !conf.UseHardware && r.predicted > 0 {
		m := vtime.NewMachine(r.Platform.Procs, r.predictor.Cfg)
		m.EnableSharingTracking()
		twin, err := simred.ByName(r.current.Name())
		if err != nil {
			// Every library scheme has a simulator (simred's tests
			// range over reduction.Names()); reaching this is a
			// programming error.
			panic(err)
		}
		measured := twin.Simulate(l, m).Total()
		dec.Predicted = r.predicted
		dec.Measured = measured
		dec.Deviation = r.Evaluator.Deviation(r.predicted, measured)
		if dec.Action == Kept {
			dec.Action = r.Evaluator.Judge(dec.Deviation)
			if dec.Action == Reselected {
				// Escalate: force re-characterization next invocation.
				r.tracker = pattern.Tracker{Threshold: r.tracker.Threshold}
			}
		}
	}

	dec.Scheme = conf.Scheme
	if conf.UseHardware {
		dec.Scheme = "pclr-" + conf.Hardware.Controller.String()
	}
	dec.Why = conf.Why
	r.history = append(r.history, dec)
	return Outcome{Result: result, Decision: dec, Configuration: conf}
}

// History returns the adaptation log.
func (r *Runtime) History() []Decision { return r.history }

// CurrentScheme returns the installed software scheme name, or "" when
// the hardware path is installed.
func (r *Runtime) CurrentScheme() string {
	if r.current == nil {
		return ""
	}
	return r.current.Name()
}
