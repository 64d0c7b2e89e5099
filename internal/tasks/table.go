package tasks

// The task table: every per-task fact of the paper, declared once and read
// by the packages that act on it. Section 6 gives each task's partitioning
// kind, Table 1 its memory footprint, Table 2b its predictor model; the
// stage is the software-pipeline cut (flowgraph.StageOf) and the glyph the
// Gantt chart's (sched.Timeline.Render).

// Kind classifies how a task may be parallelized. The paper's Section 6:
// the RDG tasks "can be easily partitioned, as the tasks have a streaming
// nature" (data-parallel striping, along with the other pixel-array tasks
// ENH and ZOOM), while "for the CPLS SEL and GW EXT tasks, functional
// partitioning is more appropriate" (bounded two-way splits over extracted
// features).
type Kind uint8

// Parallelization kinds.
const (
	// NotPartitionable tasks always run on a single core.
	NotPartitionable Kind = iota
	// DataParallel tasks stream over pixel arrays and stripe freely.
	DataParallel
	// FunctionParallel tasks operate on extracted features and split
	// two ways at most.
	FunctionParallel
)

// Model is the Table 2b predictor model of a task.
type Model uint8

// Predictor models.
const (
	// ModelConstant tasks are predicted by their pooled mean time.
	ModelConstant Model = iota
	// ModelChain tasks are predicted by an EWMA filter plus a Markov chain
	// over the per-sequence residuals (Eq. 1, Table 2a).
	ModelChain
	// ModelGrowth tasks are predicted by a linear growth in the analysis
	// pixels (Eq. 3) plus the Markov chain of the same Chain label.
	ModelGrowth
)

// Spec is one task's row of the task table.
type Spec struct {
	Name Name
	Kind Kind
	// Back is true for the enhancement-stage tasks, which feed nothing into
	// the next frame's analysis (see flowgraph.StageOf).
	Back bool
	// Optional tasks may be withheld by an open circuit: the analysis core
	// (detection, marker extraction, couple selection, registration, ROI
	// estimation, enhancement) always runs.
	Optional bool
	Model    Model
	// Chain labels the Markov chain of a ModelChain or ModelGrowth task;
	// tasks with one label share one chain.
	Chain string
	// Ratios are Table 1's {input, intermediate, output} buffers as
	// multiples of the frame size (zero for feature-data tasks).
	Ratios [3]float64
	Glyph  byte
}

// specs is the task table, in pipeline order (row i is the task IndexOf
// returns i for). The Table 1 comments give the KB at the paper's 2,048 KB
// frame.
var specs = [NumNames]Spec{
	{Name: NameDetect, Glyph: 'd'},
	{Name: NameRDGFull, Kind: DataParallel, Optional: true, Model: ModelChain, Chain: "RDG",
		Ratios: [3]float64{1, 3.5, 2.5}, Glyph: 'R'}, // 2048, 7168, 5120
	{Name: NameRDGROI, Kind: DataParallel, Optional: true, Model: ModelGrowth, Chain: "RDG",
		Ratios: [3]float64{1, 2.5, 2.5}, Glyph: 'R'}, // 2048, 5120, 5120
	{Name: NameMKXExt, Ratios: [3]float64{0.25, 0.25, 1.25}, Glyph: 'M'}, // 512, 512, 2560 (RDG off)
	{Name: NameCPLSSel, Kind: FunctionParallel, Model: ModelChain, Chain: "CPLS", Glyph: 'C'},
	{Name: NameREG, Glyph: 'G'},
	{Name: NameROIEst, Glyph: 'r'},
	{Name: NameGWExt, Kind: FunctionParallel, Back: true, Optional: true, Model: ModelChain, Chain: "GW", Glyph: 'W'},
	{Name: NameENH, Kind: DataParallel, Back: true, Ratios: [3]float64{1, 4, 0.5}, Glyph: 'E'},                  // 2048, 8192, 1024
	{Name: NameZOOM, Kind: DataParallel, Back: true, Optional: true, Ratios: [3]float64{0.5, 2, 2}, Glyph: 'Z'}, // 1024, 4096, 4096
}

// Specs returns the task table in pipeline order.
func Specs() [NumNames]Spec { return specs }

// SpecOf returns the task's row of the table; ok is false for a name
// outside the flow graph, whose Spec is the zero row (a serial,
// constant-model, front-stage task without a footprint).
func SpecOf(n Name) (s Spec, ok bool) {
	if i := IndexOf(n); i >= 0 {
		return specs[i], true
	}
	return Spec{}, false
}
