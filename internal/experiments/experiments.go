// Package experiments defines one reproducible experiment per table/figure
// of the paper's evaluation (§IV), mapping each onto the simulator models
// (internal/simbcast) over calibrated topologies (internal/simnet,
// internal/topology, internal/distem).
//
// Absolute numbers are calibrated to the paper's measured plateaus (see the
// constants below); the point of each experiment is the *shape*: who wins,
// by what factor, and where the crossovers are. Each figure's doc comment
// in figures.go states the shape it reproduces.
//
// All experiments are deterministic given Config.Seed: run-to-run variance
// (the paper's 95% confidence intervals) comes from seeded jitter applied
// to link and relay rates, standing in for the real testbed's noise.
package experiments

import (
	"fmt"
	"math/rand"

	"kascade/internal/simbcast"
	"kascade/internal/simnet"
	"kascade/internal/stats"
	"kascade/internal/topology"
)

// Config tunes an experiment run.
type Config struct {
	// Reps is the number of repetitions per data point (default 3; the
	// paper uses up to 50 for Fig 15).
	Reps int
	// Seed drives all jitter; equal seeds give identical tables.
	Seed int64
	// Scale multiplies the paper's file sizes (1.0 = paper sizes;
	// benchmarks use smaller scales to keep iterations fast). Steady-
	// state throughput is nearly scale-invariant, so shapes survive.
	Scale float64
}

func (c Config) withDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// Experiment is one regenerable table/figure.
type Experiment struct {
	// ID is the figure identifier, e.g. "fig7".
	ID string
	// Title describes the experiment.
	Title string
	// Run produces the table.
	Run func(Config) *stats.Table
}

// Calibration constants (bytes/s): effective payload rates measured against
// the paper's plateaus rather than theoretical line rates.
const (
	eth1G       = 112e6  // 1 GbE effective TCP payload (paper Fig 7 plateau)
	eth1GUp     = 1.12e9 // 10 Gbit ToR uplinks of the Fig 1 fat tree
	eth10G      = 1.12e9 // 10 GbE effective payload (Fig 8)
	ipoib       = 2.2e9  // IP over InfiniBand, 20 Gbit (Fig 9)
	ibNative    = 2.4e9  // native InfiniBand for MPI/IB (Fig 9)
	relayKas10G = 280e6  // Kascade single-thread copy ceiling on 10 GbE (Fig 8)
	relayKasIB  = 300e6  // ... and on IPoIB (Fig 9)
	relayMPI10G = 450e6  // MPI broadcast ceiling on 10 GbE (Fig 8)
	relayMPIIB  = 700e6  // MPI over native IB (Fig 9, small node counts)
	relayUDP10G = 330e6  // UDPCast sender ceiling on 10 GbE (Fig 8)
	relayTakTuk = 38e6   // TakTuk's perl command-channel encoding (Fig 7)

	// Effective sequential write rates by access pattern (§II-A1: write
	// patterns matter more than raw disk speed; raw disk is 83.5 MB/s,
	// Fig 11). Kascade writes large sequential chunks; MPI writes 1 MB
	// segments; UDPCast writes slice bursts; TakTuk small blocks.
	diskKascade = 48e6
	diskMPI     = 42e6
	diskUDPCast = 38e6
	diskTakTuk  = 30e6

	tcpWindow = 1.5e6 // per-connection TCP window for WAN paths (Fig 13)
)

// jitter returns v scattered by ±frac, seeded by rng.
func jitter(rng *rand.Rand, v, frac float64) float64 {
	if v == 0 {
		return 0
	}
	return v * (1 + frac*(rng.Float64()*2-1))
}

// fatTreeN builds a fat tree with exactly n nodes, perSwitch per switch.
func fatTreeN(n, perSwitch int, edge, uplink float64) *topology.Cluster {
	switches := (n + perSwitch - 1) / perSwitch
	if switches < 1 {
		switches = 1
	}
	ft := topology.FatTree("n", switches, perSwitch, edge, uplink)
	ft.Nodes = ft.Nodes[:n]
	return ft
}

// method tags the broadcast implementations under evaluation.
type method string

const (
	mKascade    method = "Kascade"
	mKascadeOrd method = "Kascade/ordered"
	mTakTukCh   method = "TakTuk/chain"
	mTakTukTr   method = "TakTuk/tree"
	mUDPCast    method = "UDPCast"
	mMPIEth     method = "MPI/Eth"
	mMPIIB      method = "MPI/IB"
)

// relayFor returns the per-node forwarding ceiling of a method on a given
// network generation ("1g", "10g", "ib").
func relayFor(m method, network string) float64 {
	switch m {
	case mKascade, mKascadeOrd:
		switch network {
		case "10g":
			return relayKas10G
		case "ib":
			return relayKasIB
		}
		return 0
	case mTakTukCh, mTakTukTr:
		return relayTakTuk
	case mUDPCast:
		if network == "10g" {
			return relayUDP10G
		}
		return 0
	case mMPIEth, mMPIIB:
		switch network {
		case "10g":
			return relayMPI10G
		case "ib":
			return relayMPIIB
		}
		return 0
	}
	return 0
}

// diskFor returns a method's effective write rate when sinks are disks.
func diskFor(m method) float64 {
	switch m {
	case mKascade, mKascadeOrd:
		return diskKascade
	case mTakTukCh, mTakTukTr:
		return diskTakTuk
	case mUDPCast:
		return diskUDPCast
	default:
		return diskMPI
	}
}

// runPoint executes one (method, topology, order) simulation and returns
// throughput in MB/s.
type pointSpec struct {
	method   method
	topo     *topology.Cluster
	order    topology.Order
	bytes    int64
	rates    simnet.NodeRates
	startup  float64
	chunk    int64
	failures []simbcast.NodeFailure
	// mpiSync makes the MPI model synchronize per segment (WAN runs:
	// MPI_Bcast of each 1 MB fragment completes before the next starts,
	// which is what makes MPI latency-bound in Fig 13).
	mpiSync bool
}

func runPoint(p pointSpec) float64 {
	sim := simnet.New()
	net := simnet.NewNetwork(sim)
	cluster := simnet.BuildCluster(net, p.topo, p.rates)
	var res simbcast.Result
	switch p.method {
	case mKascade, mKascadeOrd:
		res = simbcast.Kascade(cluster, p.order, p.bytes, simbcast.KascadeParams{
			ChunkSize: p.chunk, StartupTime: p.startup,
		}, p.failures)
	case mTakTukCh:
		res = simbcast.Tree(cluster, p.order, p.bytes, simbcast.TreeParams{
			ChunkSize: p.chunk, Children: simbcast.ChainChildren,
			PerChunkAck: true, StartupTime: p.startup,
		})
	case mTakTukTr:
		// TakTuk's adaptive tree reaches nearby nodes first, so its
		// shape follows the topology (see LocalityHeapChildren).
		groupOf := func(pos int) int { return p.topo.Nodes[p.order[pos]].Switch }
		res = simbcast.Tree(cluster, p.order, p.bytes, simbcast.TreeParams{
			ChunkSize: p.chunk, Children: simbcast.LocalityHeapChildren(2, groupOf),
			PerChunkAck: true, StartupTime: p.startup,
		})
	case mUDPCast:
		res = simbcast.UDPCast(cluster, p.order, p.bytes, simbcast.UDPCastParams{
			StartupTime: p.startup,
		})
	case mMPIEth:
		children := simbcast.ChainChildren
		depth := 0 // default
		if p.mpiSync {
			// WAN: the home-made loop broadcasts fragment k+1 only
			// after MPI_Bcast of fragment k returned — binomial
			// shape, one segment in flight, per-segment sync.
			children = simbcast.BinomialChildrenFn
			depth = 1
		}
		res = simbcast.Tree(cluster, p.order, p.bytes, simbcast.TreeParams{
			ChunkSize: p.chunk, Children: children, Depth: depth,
			PerChunkAck: p.mpiSync, StartupTime: p.startup,
		})
	case mMPIIB:
		res = simbcast.Tree(cluster, p.order, p.bytes, simbcast.TreeParams{
			ChunkSize: p.chunk, Children: simbcast.BinomialChildrenFn,
			StartupTime: p.startup,
		})
	default:
		panic(fmt.Sprintf("experiments: unknown method %q", p.method))
	}
	return res.Throughput(p.bytes) / 1e6
}

// scaleBytes applies Config.Scale with a sane floor.
func scaleBytes(c Config, bytes int64) int64 {
	scaled := int64(float64(bytes) * c.Scale)
	if scaled < 32<<20 {
		scaled = 32 << 20
	}
	return scaled
}

// All returns every experiment, figures first, ablations after.
func All() []Experiment {
	return []Experiment{
		Figure7(), Figure8(), Figure9(), Figure10(), Figure11(),
		Figure13(), Figure14(), Figure15(),
		AblationTimeout(), AblationWindow(), AblationArity(),
		AblationStartup(), AblationDepth(),
	}
}

// Find looks an experiment up by ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
