package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"lightwave/internal/avail"
	"lightwave/internal/dcn"
	"lightwave/internal/dsp"
	"lightwave/internal/fec"
	"lightwave/internal/sched"
	"lightwave/internal/sim"
)

// reproPins are digests of each reproduction experiment's full result,
// pinned from the seed implementation. The experiments run their paper
// reference configurations, whose own seeds are fixed, so every workload
// seed must reproduce these values exactly, traced or not.
var reproPins = map[string]string{
	"dcn_te":        "b2f8b9405719d6a7f0a56bf19295d055",
	"superpod_util": "68bfa5a602b459e70eb3f7c7dc166d55",
	"montecarlo":    "a5a7dc3e9bfab391f41219fa3cd0dcef",
}

// reproSetups is how many times a run builds the experiments' inputs, in
// reproSetupGroups groups; setup_s is the median.
const (
	reproSetups      = 1000
	reproSetupGroups = 10
)

// reproInputs are the reference configurations of the three experiments.
type reproInputs struct {
	blocks, uplinks int
	demand          [][]float64
	workload        dcn.Workload
	simCfg          dcn.SimConfig

	mix      sched.JobMix
	schedCfg sched.SimConfig

	rx      dsp.Receiver
	fleet   dsp.FleetBERConfig
	avails  []float64
	slices  []int
	fig11bs []fig11bCase
}

// fig11bCase is one Fig 11b operating point.
type fig11bCase struct {
	powerDBm float64
	cond     dsp.MPICondition
}

func newReproInputs() (*reproInputs, error) {
	in := &reproInputs{
		mix:      sched.ProductionMix(),
		schedCfg: sched.ReferenceConfig(),
		rx:       dsp.DefaultReceiver(),
		fleet:    dsp.DefaultFleetBERConfig(),
		avails:   []float64{0.99, 0.995, 0.999},
		slices:   []int{1, 2, 4, 8, 16, 32},
		fig11bs: []fig11bCase{
			{-12, dsp.MPICondition{MPIDB: dsp.NoMPI}},
			{-11, dsp.MPICondition{MPIDB: -32}},
			{-11, dsp.MPICondition{MPIDB: -29}},
			{-10, dsp.MPICondition{MPIDB: -27, OIM: true}},
		},
	}
	in.blocks, in.uplinks, in.demand, in.workload, in.simCfg = dcn.ReferenceExperiment()
	sens, err := in.rx.Sensitivity(fec.KP4Threshold, dsp.MPICondition{MPIDB: dsp.NoMPI})
	if err != nil {
		return nil, fmt.Errorf("fig 13 sensitivity: %w", err)
	}
	in.fleet.SensitivityDBm = sens
	return in, nil
}

// digest hashes a result's full printed form; %v prints every float with
// the shortest representation that round-trips, so equal digests mean
// bit-identical results.
func digest(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// reproLayers accumulates a traced repro run's per-layer timings.
type reproLayers struct {
	schedReconf, schedContig []float64 // s per sched.Simulate call
	mcBER, fleetBER, goodput []float64 // s per call
	parCPU, parWall          time.Duration
}

// experiment is one reproduction experiment. run returns the digest of its
// result.
type experiment struct {
	name string
	run  func(in *reproInputs, tr *tracer, lay *reproLayers) (string, error)
}

var experiments = []experiment{
	{"dcn_te", runDCNTE},
	{"superpod_util", runSuperpodUtil},
	{"montecarlo", runMonteCarlo},
}

// runDCNTE is §4.2: topology engineering against a uniform mesh.
func runDCNTE(in *reproInputs, tr *tracer, lay *reproLayers) (string, error) {
	cpu := cpuTime()
	t0 := time.Now()
	c, err := dcn.CompareTopologies(in.blocks, in.uplinks, in.demand, in.workload, in.simCfg)
	if tr != nil && tr.on.Load() {
		lay.parCPU += cpuTime() - cpu
		lay.parWall += time.Since(t0)
	}
	if err != nil {
		return "", err
	}
	return digest(c), nil
}

// runSuperpodUtil is §4.2.4: sched.CompareUtilization. Traced, it makes
// the two sched.Simulate calls CompareUtilization makes, timing each and
// wrapping the contiguous placer; the reconfigurable one is never wrapped
// (see tracedPlacer).
func runSuperpodUtil(in *reproInputs, tr *tracer, lay *reproLayers) (string, error) {
	if tr == nil || !tr.on.Load() {
		reconf, contig, err := sched.CompareUtilization(in.mix, in.schedCfg)
		if err != nil {
			return "", err
		}
		return digest(reconf, contig), nil
	}
	t0 := time.Now()
	reconf, err := sched.Simulate(sched.FullPod(), sched.Reconfigurable{}, in.mix, in.schedCfg)
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	contig, err := sched.Simulate(sched.FullPod(), tracedPlacer{inner: sched.Contiguous{}, t: tr}, in.mix, in.schedCfg)
	if err != nil {
		return "", err
	}
	lay.schedReconf = append(lay.schedReconf, t1.Sub(t0).Seconds())
	lay.schedContig = append(lay.schedContig, time.Since(t1).Seconds())
	return digest(reconf, contig), nil
}

// runMonteCarlo is the Fig 11b / 13 / 15b Monte Carlo set.
func runMonteCarlo(in *reproInputs, tr *tracer, lay *reproLayers) (string, error) {
	traced := tr != nil && tr.on.Load()
	cpu := cpuTime()
	t0 := time.Now()
	var fig11b []any
	for _, c := range in.fig11bs {
		an := in.rx.BER(c.powerDBm, c.cond)
		mc := in.rx.MonteCarloBER(c.powerDBm, c.cond, dsp.MonteCarloConfig{Symbols: 300000, Rand: sim.NewRand(42)})
		fig11b = append(fig11b, an, mc)
	}
	t1 := time.Now()
	fleet := in.rx.FleetBER(in.fleet)
	t2 := time.Now()
	goodput := avail.GoodputSurface(in.avails, in.slices)
	t3 := time.Now()
	if traced {
		lay.mcBER = append(lay.mcBER, t1.Sub(t0).Seconds())
		lay.fleetBER = append(lay.fleetBER, t2.Sub(t1).Seconds())
		lay.goodput = append(lay.goodput, t3.Sub(t2).Seconds())
		lay.parCPU += cpuTime() - cpu
		lay.parWall += t3.Sub(t0)
	}
	return digest(fig11b, fleet, fleet.OverThreshold(fec.KP4Threshold), goodput), nil
}

// runExperiment runs one experiment and checks its result against the
// pin. It returns the experiment's host seconds.
func runExperiment(e experiment, in *reproInputs, tr *tracer, lay *reproLayers, pins map[string]string) (float64, error) {
	t0 := time.Now()
	got, err := e.run(in, tr, lay)
	d := time.Since(t0).Seconds()
	if err != nil {
		return d, fmt.Errorf("%s: %w", e.name, err)
	}
	if got != pins[e.name] {
		return d, fmt.Errorf("%s: result digest %s, pinned %s", e.name, got, pins[e.name])
	}
	return d, nil
}

// dcnLayers times the dcn layer by calling it directly with the §4.2
// experiment's inputs, the calls CompareTopologies makes: UniformMesh and
// Engineer (build), Simulate at the FCT load (flow simulator) and
// AchievedThroughput at the saturation load (fluid solve).
func dcnLayers(in *reproInputs, rep *report) error {
	fctLoad, satLoad := in.simCfg.FCTLoadFraction, in.simCfg.SatLoadFraction
	if fctLoad == 0 {
		fctLoad = 0.7
	}
	if satLoad == 0 {
		satLoad = 0.95
	}
	t0 := time.Now()
	uni, err := dcn.UniformMesh(in.blocks, in.uplinks)
	if err != nil {
		return err
	}
	eng, err := dcn.Engineer(in.blocks, in.uplinks, in.demand)
	if err != nil {
		return err
	}
	t1 := time.Now()
	w := in.workload
	w.Demand = scaleDemand(in.demand, in.blocks, in.uplinks, in.simCfg.TrunkBps, fctLoad)
	flows := 0
	for _, top := range []*dcn.Topology{uni, eng} {
		res, err := dcn.Simulate(top, w, in.simCfg)
		if err != nil {
			return err
		}
		flows += res.CompletedFlows
	}
	t2 := time.Now()
	sat := scaleDemand(in.demand, in.blocks, in.uplinks, in.simCfg.TrunkBps, satLoad)
	for _, top := range []*dcn.Topology{uni, eng} {
		dcn.AchievedThroughput(top, sat, in.simCfg.TrunkBps)
	}
	t3 := time.Now()

	flowsim := t2.Sub(t1).Seconds()
	rep.perLayer["dcn.build_s"] = t1.Sub(t0).Seconds()
	rep.perLayer["dcn.flowsim_s"] = flowsim
	rep.perLayer["dcn.fluid_s"] = t3.Sub(t2).Seconds()
	rep.perLayer["dcn.flows_per_s"] = float64(flows) / flowsim
	return nil
}

// scaleDemand scales demand so its total is frac of the fabric's directed
// capacity, the offered load Simulate and AchievedThroughput are given.
func scaleDemand(demand [][]float64, blocks, uplinks int, trunkBps, frac float64) [][]float64 {
	total := dcn.TotalDemand(demand)
	s := frac * float64(blocks*uplinks) * trunkBps / total
	out := make([][]float64, len(demand))
	for i := range demand {
		out[i] = make([]float64, len(demand[i]))
		for j := range demand[i] {
			out[i][j] = demand[i][j] * s
		}
	}
	return out
}

// reproRunner returns the runner of the workload that repeats experiment
// e, checking every result against its pin, until the window has passed.
// One operation is one run of the experiment, so every operation of a
// workload is the same work.
func reproRunner(name string) func(cfg config) (*report, error) {
	var e experiment
	for _, x := range experiments {
		if x.name == name {
			e = x
		}
	}
	return func(cfg config) (*report, error) { return runRepro(cfg, e) }
}

func runRepro(cfg config, e experiment) (*report, error) {
	rep := newReport()
	rep.host = hostFingerprint()

	var in *reproInputs
	var err error
	rep.raw["setup_s"], rep.endToEnd["setup_s"], err = timeSetups(reproSetupGroups, reproSetups/reproSetupGroups, func() (float64, error) {
		t0 := time.Now()
		var err error
		in, err = newReproInputs()
		return time.Since(t0).Seconds(), err
	})
	if err != nil {
		return nil, err
	}

	speed := startSpeedProbe(nil)
	defer speed.stop()
	// One untimed, checked run warms the caches and grows the heap.
	_, err = runExperiment(e, in, nil, &reproLayers{}, reproPins)
	rep.check(err == nil, "warm-up: %v", err)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	lay := &reproLayers{}
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	end := start.Add(window)
	cpu := startCPU()
	rss := startRSS()

	// A traced run records only its second half and always attempts at
	// least one untraced and one traced operation.
	var untraced, traced []float64 // ms per successful operation
	var ops []opSample
	tracedOps := 0
	for n := 0; n == 0 || time.Now().Before(end) || (tr != nil && tracedOps == 0); n++ {
		if tr != nil && !tr.on.Load() && n > 0 && time.Since(start) >= window/2 {
			tr.start()
		}
		on := tr != nil && tr.on.Load()
		if on {
			tracedOps++
		}
		at := time.Now()
		d, err := runExperiment(e, in, tr, lay, reproPins)
		rep.attempted++
		if err != nil {
			rep.fail("%v", err)
			continue
		}
		ops = append(ops, opSample{at: at, d: time.Duration(d * float64(time.Second))})
		if on {
			traced = append(traced, d*1000)
		} else {
			untraced = append(untraced, d*1000)
		}
	}
	stop := time.Now()
	procCores, procCPU := cpu.cores(), cpu.used()
	rep.endToEnd["rss_p50_mb"] = rss.stop()

	windowMetrics(rep, speed, start, stop, len(ops), ops)
	rep.perLayer["op_p99_ms"] = opP99(ops)
	rep.perLayer["proc.cpu_ms_per_op"] = ratio(ms(procCPU), float64(len(ops)))

	rep.perLayer["proc.cpu_cores"] = procCores
	if tr != nil {
		if e.name == "dcn_te" {
			err := dcnLayers(in, rep)
			rep.check(err == nil, "direct dcn calls: %v", err)
		}
		rep.perLayer["sched.sim_s.reconfigurable"] = pct(lay.schedReconf, 50)
		rep.perLayer["sched.sim_s.contiguous"] = pct(lay.schedContig, 50)
		rep.perLayer["dsp.mc_ber_s"] = pct(lay.mcBER, 50)
		rep.perLayer["dsp.fleet_ber_s"] = pct(lay.fleetBER, 50)
		rep.perLayer["avail.goodput_s"] = pct(lay.goodput, 50)
		rep.perLayer["par.cpu_cores"] = ratio(float64(lay.parCPU), float64(lay.parWall))
		tr.mu.Lock()
		rep.perLayer["sched.place_p50_ns"] = pct(tr.place, 50)
		rep.perLayer["sched.place_calls"] = float64(len(tr.place))
		rep.perLayer["sched.place_fail_ratio"] = ratio(float64(tr.placeFails), float64(len(tr.place)))
		tr.mu.Unlock()
		rep.perLayer["trace.overhead_ratio"] = ratio(pct(traced, 50), pct(untraced, 50))
	}
	rep.perLayer["proc.peak_rss_mb"] = peakRSSMB()
	return rep, nil
}
