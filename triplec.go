package triplec

// The public facade: the library's primary types and constructors,
// re-exported from the internal packages so downstream importers of module
// `triplec` get the full Triple-C API — the synthetic sequence source, the
// application pipeline, the predictor, and the runtime manager — without
// reaching into internal/ (which Go would refuse anyway).
//
// The facade is intentionally thin: every name is an alias, so values flow
// freely between the facade and the deeper APIs used by the examples.

import (
	"io"

	"triplec/internal/core"
	"triplec/internal/flowgraph"
	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/sched"
	"triplec/internal/synth"
)

// Image substrate.
type (
	// Frame is a 16-bit grayscale image (the X-ray pixel container).
	Frame = frame.Frame
	// Rect is a rectangular pixel region.
	Rect = frame.Rect
)

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int) *Frame { return frame.New(w, h) }

// Synthetic angiography sequences.
type (
	// SynthConfig parameterizes a synthetic X-ray sequence.
	SynthConfig = synth.Config
	// Sequence is a deterministic synthetic frame source.
	Sequence = synth.Sequence
	// Truth is per-frame ground truth.
	Truth = synth.Truth
)

// DefaultSynthConfig returns a fully dynamic synthetic sequence config.
func DefaultSynthConfig(seed uint64) SynthConfig { return synth.DefaultConfig(seed) }

// NewSequence builds a synthetic sequence.
func NewSequence(cfg SynthConfig) (*Sequence, error) { return synth.New(cfg) }

// LoadReplay loads an exported PGM directory as a frame source.
func LoadReplay(dir string) (*synth.Replay, error) { return synth.LoadReplay(dir) }

// Platform model.
type (
	// Arch describes the multiprocessor platform (Fig. 4).
	Arch = platform.Arch
	// Machine converts task costs into execution times on an Arch.
	Machine = platform.Machine
)

// Blackford returns the paper's dual quad-core evaluation platform.
func Blackford() Arch { return platform.Blackford() }

// Application pipeline.
type (
	// PipelineConfig parameterizes the feature-enhancement engine.
	PipelineConfig = pipeline.Config
	// Engine executes the flow graph frame by frame.
	Engine = pipeline.Engine
	// Report summarizes one processed frame.
	Report = pipeline.Report
	// Scenario is one combination of the flow graph's three switches.
	Scenario = flowgraph.Scenario
	// Mapping assigns stripe counts to tasks. It is a comparable value: the
	// zero Mapping is Serial, and With sets one task's stripe count.
	Mapping = partition.Mapping
)

// NewEngine builds a pipeline engine.
func NewEngine(cfg PipelineConfig) (*Engine, error) { return pipeline.New(cfg) }

// Serial returns the straightforward one-core-per-task mapping.
func Serial() Mapping { return partition.Serial() }

// Triple-C prediction.
type (
	// Predictor is the assembled Triple-C model set.
	Predictor = core.Predictor
	// Observation is the per-frame input of the predictor.
	Observation = core.Observation
	// TrainConfig tunes predictor training.
	TrainConfig = core.TrainConfig
	// Accuracy summarizes prediction quality.
	Accuracy = core.Accuracy
)

// Train fits the Triple-C models from observation sequences.
func Train(sequences [][]Observation, cfg TrainConfig) (*Predictor, error) {
	return core.Train(sequences, cfg)
}

// FromReports converts pipeline reports into observations.
func FromReports(reports []Report, framePixels int) []Observation {
	return core.FromReports(reports, framePixels)
}

// LoadPredictor restores a predictor saved with Predictor.Save.
func LoadPredictor(r io.Reader) (*Predictor, error) { return core.Load(r) }

// Runtime management (semi-automatic parallelization).
type (
	// Manager is the prediction-driven runtime resource manager.
	Manager = sched.Manager
	// ManagedResult aggregates a managed run.
	ManagedResult = sched.Result
)

// NewManager builds a runtime manager around a trained predictor.
func NewManager(p *Predictor, arch Arch) (*Manager, error) { return sched.NewManager(p, arch) }

// RunManaged processes n frames with per-frame prediction-driven
// repartitioning.
func RunManaged(eng *Engine, mgr *Manager, n int, source func(int) *Frame, framePixels int) (ManagedResult, error) {
	return sched.RunManaged(eng, mgr, n, source, framePixels)
}

// RunStraightforward processes n frames with the static serial mapping —
// the paper's baseline.
func RunStraightforward(eng *Engine, n int, source func(int) *Frame) ([]Report, []float64, error) {
	return sched.RunStraightforward(eng, n, source)
}
