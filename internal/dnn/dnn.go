// Package dnn models the five DNN workloads of §V-B (ResNet-152,
// CosmoFlow, GPT-3, GPT-3 MoE, DLRM): their parallelism decomposition
// (D×P×O), per-iteration communication phases, and an overlap-aware
// iteration-time model driven by per-topology effective bandwidths.
//
// The paper measured operator compute times on NVIDIA A100 GPUs; those
// published numbers are encoded here directly in place of running the
// operators, as are the communication volumes the paper derives
// analytically (e.g., DLRM's 1 MB alltoalls and 2.96 MB allreduce).
package dnn

// PhaseKind is the communication type of one phase.
type PhaseKind uint8

const (
	// Allreduce phases use ring/torus collectives (data & operator dims).
	Allreduce PhaseKind = iota
	// Alltoall phases exchange with all peers (MoE dispatch, DLRM
	// embeddings).
	Alltoall
	// SendRecv phases are nearest-neighbor (pipeline stages, halos).
	SendRecv
)

// Phase is one communication phase of a training iteration.
type Phase struct {
	Kind PhaseKind
	// VolumeGB is the per-accelerator communication volume in gigabytes.
	VolumeGB float64
	// Overlap is the fraction of this phase hidden behind computation
	// (nonblocking collectives, §V-B1a; pipeline overlap, Fig. 14).
	Overlap float64
	// Rounds contributes Rounds·alpha of latency (e.g., p−1 for alltoall).
	Rounds int
}

// Model is one DNN workload.
type Model struct {
	Name      string
	D, P, O   int     // data / pipeline / operator parallelism degrees
	ComputeMS float64 // per-iteration compute time on A100 (paper-measured)
	FixedMS   float64 // framework/launch overhead outside the network model
	Phases    []Phase
}

// NetPerf is the effective network performance of one topology as seen by
// a training job: large-message collective bandwidths per accelerator and
// a per-round latency.
type NetPerf struct {
	Name          string
	AllreduceGBps float64 // algorithm bandwidth (≤ half the injection bw)
	AlltoallGBps  float64 // per-accelerator global bandwidth
	P2PGBps       float64 // cross-stage point-to-point bandwidth
	AlphaUS       float64 // per-round latency in microseconds
}

// bw returns the phase bandwidth under this topology.
func (np NetPerf) bw(k PhaseKind) float64 {
	switch k {
	case Allreduce:
		return np.AllreduceGBps
	case Alltoall:
		return np.AlltoallGBps
	default:
		return np.P2PGBps
	}
}

// PhaseTimeMS is the wall time of one phase (before overlap).
func PhaseTimeMS(p Phase, np NetPerf) float64 {
	bw := np.bw(p.Kind)
	if bw <= 0 {
		return 0
	}
	return p.VolumeGB/bw*1000 + float64(p.Rounds)*np.AlphaUS/1000
}

// CommOverheadMS is the non-overlapped communication time of one iteration.
func CommOverheadMS(m Model, np NetPerf) float64 {
	total := 0.0
	for _, p := range m.Phases {
		total += PhaseTimeMS(p, np) * (1 - p.Overlap)
	}
	return total + m.FixedMS
}

// IterationMS is the modeled per-iteration wall time.
func IterationMS(m Model, np NetPerf) float64 {
	return m.ComputeMS + CommOverheadMS(m, np)
}

// CostSaving is the Fig. 15 metric: the network-cost ratio times the
// inverse of the communication-overhead ratio, comparing an HxMesh
// (costHx, perfHx) against another topology (costOther, perfOther).
// Values above 1 favor the HxMesh.
func CostSaving(m Model, costHx, costOther float64, perfHx, perfOther NetPerf) float64 {
	ovHx := CommOverheadMS(m, perfHx)
	ovOther := CommOverheadMS(m, perfOther)
	if ovHx <= 0 || costHx <= 0 {
		return 0
	}
	return (costOther / costHx) * (ovOther / ovHx)
}

// Models returns the five workloads with the paper's published compute
// times and communication volumes. Volumes without an explicit number in
// the paper (GPT-3 pipeline/operator aggregates, CosmoFlow halos) are
// calibrated so the modeled overheads land near the runtimes reported in
// §V-B on the Table II effective bandwidths; `hxdnn -paper` prints
// PaperRuntimesMS under the modeled table for comparison.
func Models() []Model {
	return []Model{
		{
			// §V-B2: D=1024, minibatch 32,768; 60.2M FP32 parameters in 10
			// nonblocking allreduce groups, almost fully overlapped.
			Name: "ResNet-152", D: 1024, P: 1, O: 1,
			ComputeMS: 108,
			Phases: []Phase{
				{Kind: Allreduce, VolumeGB: 0.2408, Overlap: 0.93, Rounds: 10},
			},
		},
		{
			// §V-B3: D=256, O=4; 8.9M parameters; halo exchanges and
			// allgathers in the operator dimension, mostly overlapped.
			Name: "CosmoFlow", D: 256, P: 1, O: 4,
			ComputeMS: 44.3,
			Phases: []Phase{
				{Kind: Allreduce, VolumeGB: 0.0356, Overlap: 0.9, Rounds: 10},
				{Kind: Allreduce, VolumeGB: 0.45, Overlap: 0.85, Rounds: 4}, // operator allgather/reduce-scatter
				{Kind: SendRecv, VolumeGB: 0.05, Overlap: 0.9, Rounds: 8},   // halos
			},
		},
		{
			// §V-B5: P=96, O=4, D=1; ≈100 MB activations per layer cut;
			// Megatron-style operator allreduce per layer.
			Name: "GPT-3", D: 1, P: 96, O: 4,
			ComputeMS: 31.8,
			Phases: []Phase{
				{Kind: SendRecv, VolumeGB: 0.186, Overlap: 0, Rounds: 96},  // pipeline
				{Kind: Allreduce, VolumeGB: 0.204, Overlap: 0, Rounds: 96}, // MHA+FF allreduce
			},
		},
		{
			// §V-B5: 16 experts, two alltoalls per FF in forward and
			// backward passes.
			Name: "GPT-3-MoE", D: 1, P: 96, O: 4,
			ComputeMS: 49.9,
			Phases: []Phase{
				{Kind: SendRecv, VolumeGB: 0.12, Overlap: 0, Rounds: 96},
				{Kind: Allreduce, VolumeGB: 0.12, Overlap: 0, Rounds: 96},
				{Kind: Alltoall, VolumeGB: 0.09, Overlap: 0, Rounds: 64},
			},
		},
		{
			// §V-B4: embedding 95 us + interaction 209 us + MLP 796 us
			// compute; 1 MB per alltoall (×2) and 2.96 MB allreduce, up to
			// 128 nodes.
			Name: "DLRM", D: 128, P: 1, O: 1,
			ComputeMS: 0.095 + 0.209 + 0.796,
			FixedMS:   1.3, // framework/launch overhead (fit to §V-B4)
			Phases: []Phase{
				{Kind: Alltoall, VolumeGB: 0.002, Overlap: 0, Rounds: 254},
				{Kind: Allreduce, VolumeGB: 0.00296, Overlap: 0.3, Rounds: 256},
			},
		},
	}
}

// PaperRuntimesMS is the paper's reported per-iteration runtime (ms) per
// topology for each model (§V-B), which `hxdnn -paper` and the tests
// compare the model against (the original SST measurements).
var PaperRuntimesMS = map[string]map[string]float64{
	"ResNet-152": {
		"fattree": 109.7, "fattree50": 109.7, "fattree75": 109.7,
		"hyperx": 109.7, "hx2mesh": 110.1, "hx4mesh": 110.1, "torus": 110.1,
	},
	"GPT-3": {
		"fattree": 34.8, "fattree50": 36.4, "fattree75": 37.5,
		"hyperx": 40.9, "hx2mesh": 41.7, "hx4mesh": 49.9, "torus": 72.2,
	},
	"GPT-3-MoE": {
		"fattree": 52.2, "fattree50": 52.5, "fattree75": 52.9,
		"hyperx": 53.9, "hx2mesh": 58.3, "hx4mesh": 63.3, "torus": 73.8,
	},
	"DLRM": {
		"fattree": 2.96, "fattree50": 2.97, "fattree75": 2.99,
		"hyperx": 2.94, "hx2mesh": 2.97, "hx4mesh": 3.00, "torus": 3.12,
	},
	"CosmoFlow": {
		"fattree": 45.2, "fattree50": 45.2, "fattree75": 45.2,
		"hyperx": 45.2, "hx2mesh": 45.2, "hx4mesh": 45.8, "torus": 46.25,
	},
}

// StandardPerf returns the effective network performance of the paper's
// small-cluster configurations (≈1k accelerators, 4×400 Gb/s injection),
// derived from the Table II bandwidth shares: allreduce ≈98% of the
// 100 GB/s optimum on all topologies (rings embed everywhere), alltoall at
// the topology's global-bandwidth share of the 200 GB/s injection.
func StandardPerf() []NetPerf {
	inj := 200.0 // GB/s per accelerator (4 planes x 400 Gb/s or 4 links)
	mk := func(name string, a2aShare, arShare float64, alphaUS float64) NetPerf {
		return NetPerf{
			Name:          name,
			AllreduceGBps: arShare * inj / 2,
			AlltoallGBps:  a2aShare * inj,
			P2PGBps:       a2aShare * inj, // cross-stage traffic is global
			AlphaUS:       alphaUS,
		}
	}
	return []NetPerf{
		mk("fattree", 0.999, 0.989, 1.0),
		mk("fattree50", 0.512, 0.989, 1.0),
		mk("fattree75", 0.257, 0.989, 1.0),
		mk("dragonfly", 0.629, 0.988, 1.0),
		mk("hyperx", 0.916, 0.981, 1.2),
		mk("hx2mesh", 0.254, 0.983, 1.2),
		mk("hx4mesh", 0.113, 0.984, 1.5),
		mk("torus", 0.020, 0.981, 3.0),
	}
}

// PerfByName indexes StandardPerf.
func PerfByName(name string) (NetPerf, bool) {
	for _, p := range StandardPerf() {
		if p.Name == name {
			return p, true
		}
	}
	return NetPerf{}, false
}
