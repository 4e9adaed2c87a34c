package sim

import (
	"testing"

	"bump/internal/workload"
)

// fastConfig shrinks the measurement windows so integration tests stay
// quick while still exercising hundreds of thousands of events.
func fastConfig(m Mechanism, w workload.Params) Config {
	cfg := DefaultConfig(m, w)
	// A smaller LLC reaches write-back steady state within the short
	// warmup window.
	cfg.LLCBytes = 1 << 20
	cfg.WarmupCycles = 300_000
	cfg.MeasureCycles = 600_000
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(BaseOpen, workload.WebSearch())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	bad := cfg
	bad.Cores = 0
	if _, err := New(bad); err == nil {
		t.Error("zero cores must fail")
	}
	bad = cfg
	bad.MeasureCycles = 0
	if _, err := New(bad); err == nil {
		t.Error("zero measure window must fail")
	}
	bad = cfg
	bad.Mechanism = Mechanism(99)
	if _, err := New(bad); err == nil {
		t.Error("unknown mechanism must fail")
	}
	bad = cfg
	bad.Workload.OpenTasks = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid workload must fail")
	}
	bad = cfg
	bad.MaxRowHitStreak = -3
	if _, err := New(bad); err == nil {
		t.Error("negative row-hit streak cap must fail")
	}
	bad = cfg
	bad.L1Ways = 32
	if _, err := New(bad); err == nil {
		t.Error("a 32-way L1 must fail")
	}
	bad = cfg
	bad.LLCWays = 32
	if _, err := New(bad); err == nil {
		t.Error("a 32-way LLC must fail")
	}
}

func TestMechanismStrings(t *testing.T) {
	want := map[Mechanism]string{
		BaseClose: "base-close", BaseOpen: "base-open", SMSOnly: "sms",
		VWQOnly: "vwq", SMSVWQ: "sms+vwq", FullRegion: "full-region", BuMP: "bump",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if Mechanism(42).String() == "" {
		t.Error("unknown mechanism must render")
	}
	if len(Mechanisms()) != 7 {
		t.Error("seven mechanisms expected")
	}
}

func TestBaselineRunProducesActivity(t *testing.T) {
	cfg := fastConfig(BaseOpen, workload.WebSearch())
	cfg.Profile = true
	r, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 600_000 {
		t.Errorf("Cycles = %d", r.Cycles)
	}
	if r.Instructions == 0 || r.IPC() <= 0 {
		t.Error("no instructions retired")
	}
	if r.MemoryAccesses() == 0 {
		t.Error("no DRAM accesses")
	}
	if r.DRAM.ReadBursts == 0 || r.DRAM.WriteBursts == 0 {
		t.Errorf("missing reads/writes: %+v", r.DRAM)
	}
	if r.Profile.Reads() == 0 || r.Profile.Writes == 0 {
		t.Error("profiler saw no traffic")
	}
	if r.Energy.Total() <= 0 {
		t.Error("no energy accounted")
	}
	if r.EPATotal <= 0 {
		t.Error("no per-access energy")
	}
	// Sanity: writes are a significant minority of traffic (Fig. 3).
	wf := float64(r.Profile.Writes) / float64(r.Profile.Accesses())
	if wf < 0.10 || wf > 0.50 {
		t.Errorf("write fraction %.2f out of range", wf)
	}
}

func TestCloseRowHasZeroHits(t *testing.T) {
	r, err := RunOne(fastConfig(BaseClose, workload.WebSearch()))
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAM.RowHits != 0 {
		t.Errorf("close-row policy produced %d row hits", r.DRAM.RowHits)
	}
}

func TestBuMPImprovesOverBaseline(t *testing.T) {
	base, err := RunOne(fastConfig(BaseOpen, workload.WebSearch()))
	if err != nil {
		t.Fatal(err)
	}
	bmp, err := RunOne(fastConfig(BuMP, workload.WebSearch()))
	if err != nil {
		t.Fatal(err)
	}
	if bmp.RowHitRatio() <= base.RowHitRatio()+0.1 {
		t.Errorf("BuMP hit %.2f must clearly beat baseline %.2f",
			bmp.RowHitRatio(), base.RowHitRatio())
	}
	if bmp.EPATotal >= base.EPATotal {
		t.Errorf("BuMP energy/access %.2g must beat baseline %.2g",
			bmp.EPATotal, base.EPATotal)
	}
	if bmp.IPC() <= base.IPC() {
		t.Errorf("BuMP IPC %.2f must beat baseline %.2f", bmp.IPC(), base.IPC())
	}
	if bmp.ReadCoverage() < 0.2 {
		t.Errorf("read coverage %.2f implausibly low", bmp.ReadCoverage())
	}
	if bmp.WriteCoverage() < 0.3 {
		t.Errorf("write coverage %.2f implausibly low", bmp.WriteCoverage())
	}
	if bmp.Counters.BulkReads == 0 || bmp.Counters.EagerWrites == 0 {
		t.Error("BuMP issued no bulk transfers")
	}
	st := bmp.Counters
	if st.LateBulkReads == 0 {
		t.Log("note: no late bulk reads observed (all fills timely)")
	}
	_ = st
}

func TestFullRegionOverfetches(t *testing.T) {
	fr, err := RunOne(fastConfig(FullRegion, workload.DataServing()))
	if err != nil {
		t.Fatal(err)
	}
	bmp, err := RunOne(fastConfig(BuMP, workload.DataServing()))
	if err != nil {
		t.Fatal(err)
	}
	if fr.ReadOverfetch() <= 2*bmp.ReadOverfetch() {
		t.Errorf("Full-region overfetch %.2f must far exceed BuMP %.2f",
			fr.ReadOverfetch(), bmp.ReadOverfetch())
	}
	if fr.IPC() >= bmp.IPC() {
		t.Errorf("Full-region IPC %.2f must trail BuMP %.2f (bandwidth saturation)",
			fr.IPC(), bmp.IPC())
	}
}

func TestSMSAndVWQLandBetweenBaseAndBuMP(t *testing.T) {
	w := workload.WebServing()
	base, _ := RunOne(fastConfig(BaseOpen, w))
	sms, _ := RunOne(fastConfig(SMSOnly, w))
	vwq, _ := RunOne(fastConfig(VWQOnly, w))
	bmp, _ := RunOne(fastConfig(BuMP, w))
	if sms.RowHitRatio() <= base.RowHitRatio() {
		t.Errorf("SMS hit %.2f must beat base %.2f", sms.RowHitRatio(), base.RowHitRatio())
	}
	if vwq.RowHitRatio() <= base.RowHitRatio() {
		t.Errorf("VWQ hit %.2f must beat base %.2f", vwq.RowHitRatio(), base.RowHitRatio())
	}
	if bmp.RowHitRatio() <= sms.RowHitRatio() || bmp.RowHitRatio() <= vwq.RowHitRatio() {
		t.Errorf("BuMP %.2f must beat SMS %.2f and VWQ %.2f",
			bmp.RowHitRatio(), sms.RowHitRatio(), vwq.RowHitRatio())
	}
	// VWQ improves write locality specifically.
	if vwq.WriteCoverage() == 0 {
		t.Error("VWQ must generate eager writebacks")
	}
	if sms.WriteCoverage() != 0 {
		t.Error("SMS must not generate eager writebacks")
	}
}

func TestIdealBoundsEveryone(t *testing.T) {
	w := workload.OnlineAnalytics()
	baseCfg := fastConfig(BaseOpen, w)
	baseCfg.Profile = true
	base, _ := RunOne(baseCfg)
	bmp, _ := RunOne(fastConfig(BuMP, w))
	ideal := base.Profile.IdealHitRatio()
	if ideal <= base.RowHitRatio() {
		t.Errorf("ideal %.2f must exceed baseline %.2f", ideal, base.RowHitRatio())
	}
	// BuMP recovers a large share of, but not more than, ideal locality
	// (small tolerance for run-to-run variation between configs).
	if bmp.RowHitRatio() > ideal+0.12 {
		t.Errorf("BuMP %.2f exceeds ideal %.2f", bmp.RowHitRatio(), ideal)
	}
}

func TestDeterministicResults(t *testing.T) {
	a, _ := RunOne(fastConfig(BuMP, workload.WebSearch()))
	b, _ := RunOne(fastConfig(BuMP, workload.WebSearch()))
	if a.DRAM != b.DRAM || a.Instructions != b.Instructions || a.Counters != b.Counters {
		t.Error("identical configs must produce identical results")
	}
	c := fastConfig(BuMP, workload.WebSearch())
	c.Seed = 99
	r3, _ := RunOne(c)
	if r3.DRAM == a.DRAM {
		t.Error("different seeds should perturb results")
	}
}

func TestDensityProfilerShape(t *testing.T) {
	cfg := fastConfig(BaseOpen, workload.MediaStreaming())
	cfg.Profile = true
	r, _ := RunOne(cfg)
	p := r.Profile
	if got := p.HighDensityReadFraction(); got < 0.5 {
		t.Errorf("media streaming high-density reads %.2f, want majority", got)
	}
	if got := p.HighDensityWriteFraction(); got < 0.5 {
		t.Errorf("media streaming high-density writes %.2f, want majority", got)
	}
	if p.ReadGenerations == 0 || p.WriteEpochs == 0 {
		t.Error("profiler recorded no generations")
	}
	if lf := p.LateWriteFraction(); lf > 0.25 {
		t.Errorf("late writes %.2f should be small (Table I)", lf)
	}
}

func TestStoreTriggeredReadsTracked(t *testing.T) {
	cfg := fastConfig(BaseOpen, workload.WebServing())
	cfg.Profile = true
	r, _ := RunOne(cfg)
	if r.Profile.StoreReads == 0 {
		t.Error("store-triggered reads must appear (Fig. 3)")
	}
	frac := float64(r.Profile.StoreReads) / float64(r.Profile.Reads())
	if frac < 0.05 || frac > 0.7 {
		t.Errorf("store-read fraction %.2f out of range", frac)
	}
}

func TestBuMPPredictorWired(t *testing.T) {
	s, err := New(fastConfig(BuMP, workload.WebSearch()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Predictor() == nil {
		t.Fatal("BuMP system must expose its predictor")
	}
	s.Run()
	ps := s.Predictor().Stats()
	if ps.HighDensityRegions == 0 || ps.BHTHits == 0 || ps.BulkReads == 0 {
		t.Errorf("predictor saw no action: %+v", ps)
	}
	base, _ := New(fastConfig(BaseOpen, workload.WebSearch()))
	if base.Predictor() != nil {
		t.Error("baseline must not have a predictor")
	}
}

func TestDesignSpaceConfigsRun(t *testing.T) {
	// Fig. 11's region-size/threshold grid must all be runnable.
	for _, shift := range []uint{9, 10, 11} {
		blocks := uint(1) << (shift - 6)
		for _, pct := range []uint{25, 50, 100} {
			cfg := fastConfig(BuMP, workload.WebSearch())
			cfg.MeasureCycles = 200_000
			cfg.BuMP.RegionShift = shift
			cfg.BuMP.DensityThreshold = blocks * pct / 100
			if cfg.BuMP.DensityThreshold == 0 {
				cfg.BuMP.DensityThreshold = 1
			}
			r, err := RunOne(cfg)
			if err != nil {
				t.Fatalf("shift %d pct %d: %v", shift, pct, err)
			}
			if r.MemoryAccesses() == 0 {
				t.Errorf("shift %d pct %d: no traffic", shift, pct)
			}
		}
	}
}

func TestDensityClassStrings(t *testing.T) {
	if LowDensity.String() != "low" || MediumDensity.String() != "medium" || HighDensity.String() != "high" {
		t.Error("density class strings")
	}
	if classify(3, 16) != LowDensity || classify(4, 16) != MediumDensity || classify(8, 16) != HighDensity {
		t.Error("classification boundaries (Fig. 5: <25%, 25-50%, >=50%)")
	}
}

func TestBuMPVWQExtension(t *testing.T) {
	w := workload.WebServing()
	bm, err := RunOne(fastConfig(BuMP, w))
	if err != nil {
		t.Fatal(err)
	}
	bv, err := RunOne(fastConfig(BuMPVWQ, w))
	if err != nil {
		t.Fatal(err)
	}
	// The combination must add write coverage over plain BuMP (VWQ
	// catches the non-high-density dirty evictions).
	if bv.WriteCoverage() <= bm.WriteCoverage() {
		t.Errorf("BuMP+VWQ write coverage %.2f must exceed BuMP %.2f",
			bv.WriteCoverage(), bm.WriteCoverage())
	}
	if BuMPVWQ.String() != "bump+vwq" {
		t.Error("mechanism name")
	}
}

func TestNOCPCTransportOnlyForBuMP(t *testing.T) {
	base, _ := RunOne(fastConfig(BaseOpen, workload.WebSearch()))
	bmp, _ := RunOne(fastConfig(BuMP, workload.WebSearch()))
	if base.NOC.PCMsgs != 0 {
		t.Error("baseline requests must not carry the PC")
	}
	if bmp.NOC.PCMsgs == 0 {
		t.Error("BuMP requests must carry the PC (Fig. 12 overhead)")
	}
	if bmp.NOC.PCMsgs != bmp.NOC.ControlMsgs {
		t.Error("every BuMP request message carries the PC")
	}
}

func TestRefreshOccursInLongRuns(t *testing.T) {
	cfg := fastConfig(BaseOpen, workload.WebSearch())
	r, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 600k CPU cycles = 200k memory cycles = ~32 tREFI intervals per
	// touched rank.
	if r.DRAM.Refreshes == 0 {
		t.Error("refreshes must occur during a full run")
	}
}

// Conservation: DRAM reads equal demand + bulk + prefetch reads issued
// (modulo transactions still in flight at the snapshot boundaries), and
// writes equal demand + eager writebacks.
func TestTrafficConservation(t *testing.T) {
	for _, m := range []Mechanism{BaseOpen, BuMP, VWQOnly} {
		r, err := RunOne(fastConfig(m, workload.OnlineAnalytics()))
		if err != nil {
			t.Fatal(err)
		}
		issuedReads := r.Counters.DemandReads + r.Counters.BulkReads + r.Counters.PrefetchReads
		slackR := float64(r.DRAM.ReadBursts) / float64(issuedReads)
		if slackR < 0.9 || slackR > 1.1 {
			t.Errorf("%v: DRAM reads %d vs issued %d", m, r.DRAM.ReadBursts, issuedReads)
		}
		issuedWrites := r.Counters.DemandWrites + r.Counters.EagerWrites
		slackW := float64(r.DRAM.WriteBursts) / float64(issuedWrites)
		if slackW < 0.85 || slackW > 1.15 {
			t.Errorf("%v: DRAM writes %d vs issued %d", m, r.DRAM.WriteBursts, issuedWrites)
		}
	}
}

func TestFootprintSystemRuns(t *testing.T) {
	cfg := fastConfig(BuMP, workload.WebSearch())
	cfg.BuMP.Footprint = true
	fp, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := RunOne(fastConfig(BuMP, workload.WebSearch()))
	// Footprint streaming must not overfetch more than whole-region.
	if fp.ReadOverfetch() > whole.ReadOverfetch()+0.02 {
		t.Errorf("footprint overfetch %.3f must not exceed whole-region %.3f",
			fp.ReadOverfetch(), whole.ReadOverfetch())
	}
	if fp.Counters.BulkReads == 0 {
		t.Error("footprint mode must still stream")
	}
}

func TestFairnessCapSystemRuns(t *testing.T) {
	cfg := fastConfig(BuMP, workload.WebSearch())
	cfg.MaxRowHitStreak = 4
	capped, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if capped.MemoryAccesses() == 0 {
		t.Fatal("capped run produced no traffic")
	}
	uncapped, _ := RunOne(fastConfig(BuMP, workload.WebSearch()))
	// The cap can only reduce (or match) the row-hit ratio.
	if capped.RowHitRatio() > uncapped.RowHitRatio()+0.05 {
		t.Errorf("cap raised hit ratio: %.3f vs %.3f", capped.RowHitRatio(), uncapped.RowHitRatio())
	}
}

func TestLoadLatencyTracking(t *testing.T) {
	base, err := RunOne(fastConfig(BaseOpen, workload.WebSearch()))
	if err != nil {
		t.Fatal(err)
	}
	if base.LoadLatencyN == 0 {
		t.Fatal("no load latencies sampled")
	}
	// Round trips include at least NOC out + LLC + NOC back.
	if base.LoadLatencyMean < 18 {
		t.Errorf("mean load latency %.1f implausibly low", base.LoadLatencyMean)
	}
	if base.LoadLatencyP95 < base.LoadLatencyMean {
		t.Error("P95 below the mean")
	}
	// BuMP turns misses into LLC hits: mean demand-load latency drops.
	bmp, _ := RunOne(fastConfig(BuMP, workload.WebSearch()))
	if bmp.LoadLatencyMean >= base.LoadLatencyMean {
		t.Errorf("BuMP load latency %.1f must beat baseline %.1f",
			bmp.LoadLatencyMean, base.LoadLatencyMean)
	}
}
