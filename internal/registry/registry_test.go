package registry

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hdcedge/internal/dataset"
	"hdcedge/internal/edgetpu"
	"hdcedge/internal/hdc"
	"hdcedge/internal/metrics"
	"hdcedge/internal/pipeline"
)

// testModel compiles a small HDC classifier at the given dimension.
func testModel(t testing.TB, dim int, seed uint64) *edgetpu.CompiledModel {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec(16, 60, 3, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := hdc.Train(ds, nil, hdc.TrainConfig{
		Dim: dim, Epochs: 1, LearningRate: 1, Nonlinear: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := pipeline.CompileInference(pipeline.EdgeTPU(), model, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func TestRegisterComputesFootprintAndSetup(t *testing.T) {
	g := New()
	cm := testModel(t, 256, 1)
	e, err := g.Register("a", cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := cm.MemoryMap().Used; e.Footprint != want {
		t.Fatalf("footprint %d != memory-map used %d", e.Footprint, want)
	}
	if e.Footprint < cm.ParamBytes {
		t.Fatalf("aligned footprint %d below raw param bytes %d", e.Footprint, cm.ParamBytes)
	}
	want := cm.Config.TransferTime(e.BlobBytes) + cm.Config.TransferTime(e.Footprint)
	if e.Setup != want {
		t.Fatalf("setup %v != transfer roofline %v", e.Setup, want)
	}
	if e.Setup <= 0 {
		t.Fatal("setup cost must be positive")
	}
	if _, err := g.Register("a", cm, nil); err == nil {
		t.Fatal("duplicate register must fail")
	}
	if _, err := g.Register("", cm, nil); err == nil {
		t.Fatal("empty ID must fail")
	}
	if got := g.IDs(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("IDs %v", got)
	}
}

func TestRegisterNonResidentModelBillsBlobOnly(t *testing.T) {
	// A graph wider than device memory streams its weights on every invoke
	// (the device bills them as WeightStream), so the registry must neither
	// budget it nor bill its parameters again as re-setup.
	cm := testModel(t, 256, 1)
	small := cm.Config
	small.ParamMemBytes = cm.ParamBytes / 2
	big, err := edgetpu.Compile(cm.Model, small)
	if err != nil {
		t.Fatal(err)
	}
	if big.Resident {
		t.Fatalf("%d param bytes resident in %d", big.ParamBytes, small.ParamMemBytes)
	}
	g := New()
	e, err := g.Register("big", big, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Footprint != 0 {
		t.Fatalf("non-resident footprint %d, want 0", e.Footprint)
	}
	if want := small.TransferTime(e.BlobBytes); e.Setup != want {
		t.Fatalf("non-resident setup %v, want blob-only %v", e.Setup, want)
	}
	mem, err := g.NewDeviceMemory(0, small.ParamMemBytes, EvictLRU)
	if err != nil {
		t.Fatal(err)
	}
	mem.Preload(e)
	if adm := mem.Acquire(e); !adm.Hit || adm.Setup != 0 {
		t.Fatalf("preloaded non-resident model: %+v", adm)
	}
}

func TestSwapBumpsVersionAndInvalidatesResidency(t *testing.T) {
	g := New()
	cm := testModel(t, 256, 1)
	e1, err := g.Register("a", cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := g.NewDeviceMemory(0, e1.Footprint*2, EvictLRU)
	if err != nil {
		t.Fatal(err)
	}
	if adm := mem.Acquire(e1); adm.Hit {
		t.Fatal("first touch must miss")
	}
	if adm := mem.Acquire(e1); !adm.Hit {
		t.Fatal("second touch must hit")
	}
	e2, err := g.Swap("a", testModel(t, 256, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version != e1.Version+1 {
		t.Fatalf("swap version %d, want %d", e2.Version, e1.Version+1)
	}
	adm := mem.Acquire(e2)
	if adm.Hit {
		t.Fatal("swapped model must miss: stale parameters are invalid")
	}
	if !adm.Resident {
		t.Fatal("swapped model should re-load resident")
	}
	if _, err := g.Swap("nope", cm, nil); err == nil {
		t.Fatal("swap of unregistered ID must fail")
	}
}

// lruScenario drives a fixed arrival order through a fresh registry +
// device memory and returns the event log and stats.
func lruScenario(t *testing.T, policy EvictPolicy, reg *metrics.Registry) ([]Event, MemStats) {
	t.Helper()
	g := New()
	var entries []*Entry
	for _, id := range []string{"a", "b", "c"} {
		e, err := g.Register(id, testModel(t, 256, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	// Budget holds exactly two of the three same-sized models.
	mem, err := g.NewDeviceMemory(0, entries[0].Footprint*2, policy)
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		mem.Instrument(reg, `worker="0"`)
	}
	// a b a c a b: classic LRU exercise.
	for _, i := range []int{0, 1, 0, 2, 0, 1} {
		mem.Acquire(entries[i])
	}
	return mem.Events(), mem.Stats()
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	evs, st := lruScenario(t, EvictLRU, nil)
	// a miss, b miss, a hit, (evict b) c miss, a hit, (evict c) b miss.
	var kinds []EventKind
	var models []string
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
		models = append(models, e.Model)
	}
	wantKinds := []EventKind{EvMiss, EvMiss, EvHit, EvEvict, EvMiss, EvHit, EvEvict, EvMiss}
	wantModels := []string{"a", "b", "a", "b", "c", "a", "c", "b"}
	if !reflect.DeepEqual(kinds, wantKinds) || !reflect.DeepEqual(models, wantModels) {
		t.Fatalf("event stream %v %v, want %v %v", kinds, models, wantKinds, wantModels)
	}
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats %+v", st)
	}
	// Seq must be strictly increasing (total order).
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq not increasing at %d: %v", i, evs)
		}
	}
}

func TestPinFirstNeverEvicts(t *testing.T) {
	evs, st := lruScenario(t, PinFirst, nil)
	// a and b pin; c streams on every access and evicts nobody.
	for _, e := range evs {
		if e.Kind == EvEvict {
			t.Fatalf("pin-first evicted %s: %v", e.Model, evs)
		}
		if e.Model == "c" && e.Resident {
			t.Fatalf("pin-first made c resident: %v", evs)
		}
	}
	if st.Evictions != 0 || st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEvictionDeterministic: the same arrival order yields bit-identical
// event sequences and re-setup billing, run to run. Runs under -race via
// make tenant-smoke.
func TestEvictionDeterministic(t *testing.T) {
	reg1 := metrics.NewRegistry()
	evs1, st1 := lruScenario(t, EvictLRU, reg1)
	evs2, st2 := lruScenario(t, EvictLRU, metrics.NewRegistry())
	if !reflect.DeepEqual(evs1, evs2) {
		t.Fatalf("event sequences diverge:\n%v\n%v", evs1, evs2)
	}
	if st1 != st2 {
		t.Fatalf("billing diverges: %+v vs %+v", st1, st2)
	}
	if st1.SwapTime <= 0 {
		t.Fatal("no re-setup billed")
	}
	snap := reg1.Snapshot()
	if n := snap.Counters[`hdc_registry_misses_total{worker="0"}`]; n != int64(st1.Misses) {
		t.Fatalf("instrumented misses %d != stats %d", n, st1.Misses)
	}
	if n := snap.Counters[`hdc_registry_swap_ns_total{worker="0"}`]; n != int64(st1.SwapTime) {
		t.Fatalf("instrumented swap ns %d != stats %v", n, st1.SwapTime)
	}
}

func TestOversizedModelStreams(t *testing.T) {
	g := New()
	e, err := g.Register("big", testModel(t, 1024, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := g.NewDeviceMemory(0, e.Footprint/2, EvictLRU)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		adm := mem.Acquire(e)
		if adm.Hit || adm.Resident || adm.Setup != e.Setup {
			t.Fatalf("touch %d: oversized model should stream: %+v", i, adm)
		}
	}
	if st := mem.Stats(); st.Misses != 2 || st.Used != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPreloadSkipsBilling(t *testing.T) {
	g := New()
	e, err := g.Register("a", testModel(t, 256, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := g.NewDeviceMemory(0, e.Footprint*2, EvictLRU)
	if err != nil {
		t.Fatal(err)
	}
	mem.Preload(e)
	if evs := mem.Events(); len(evs) != 0 {
		t.Fatalf("preload emitted events: %v", evs)
	}
	if adm := mem.Acquire(e); !adm.Hit {
		t.Fatal("preloaded model must hit")
	}
	if st := mem.Stats(); st.Misses != 0 || st.SwapTime != 0 {
		t.Fatalf("preload billed: %+v", st)
	}
}

// TestEventLogRingWraps drives a device well past eventCap events: the log
// keeps exactly the newest eventCap, oldest first, with no gap.
func TestEventLogRingWraps(t *testing.T) {
	g := New()
	var entries []*Entry
	for _, id := range []string{"a", "b", "c"} {
		e, err := g.Register(id, testModel(t, 256, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	mem, err := g.NewDeviceMemory(0, entries[0].Footprint*2, EvictLRU)
	if err != nil {
		t.Fatal(err)
	}
	// Cycling three models through room for two misses and evicts on every
	// acquire; the periodic repeat adds hits, so all three kinds wrap.
	for i := 0; i < 3*eventCap+17; i++ {
		mem.Acquire(entries[i%3])
		if i%5 == 0 {
			mem.Acquire(entries[i%3])
		}
	}
	evs := mem.Events()
	if len(evs) != eventCap {
		t.Fatalf("retained %d events, want %d", len(evs), eventCap)
	}
	last := g.seq.Load()
	if evs[len(evs)-1].Seq != last {
		t.Fatalf("newest retained seq %d, want the latest %d", evs[len(evs)-1].Seq, last)
	}
	kinds := map[EventKind]int{}
	for i, e := range evs {
		kinds[e.Kind]++
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			t.Fatalf("event %d seq %d follows %d: not oldest-to-newest", i, e.Seq, evs[i-1].Seq)
		}
	}
	if kinds[EvHit] == 0 || kinds[EvMiss] == 0 || kinds[EvEvict] == 0 {
		t.Fatalf("retained kinds %v, want hits, misses and evictions", kinds)
	}
}

// BenchmarkGetAcquireHit is the per-invoke registry cost of a TPU worker
// serving a resident model: one lock-free Get and one Acquire hit. The
// event log is a ring, so this is 0 B/op however long it runs.
func BenchmarkGetAcquireHit(b *testing.B) {
	g := New()
	if _, err := g.Register("a", testModel(b, 256, 1), nil); err != nil {
		b.Fatal(err)
	}
	e, _ := g.Get("a")
	mem, err := g.NewDeviceMemory(0, e.Footprint*2, EvictLRU)
	if err != nil {
		b.Fatal(err)
	}
	mem.Preload(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := g.Get("a")
		if !mem.Acquire(e).Hit {
			b.Fatal("resident model missed")
		}
	}
}

func TestGoldenSharedAcrossCalls(t *testing.T) {
	g := New()
	e, err := g.Register("a", testModel(t, 256, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := e.Golden()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e.Golden()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || g1 == nil {
		t.Fatal("golden must be computed once and shared")
	}
}

// TestSwapPublicationAtomicUnderReaders hammers Swap from a trainer-style
// publisher while reader goroutines Get concurrently (the serving bind
// path): every observed entry must be internally consistent — its
// Compiled pointer one of the published models with the footprint, blob
// size and setup priced from exactly that model — and versions must be
// monotone per reader. Runs under -race via make online-smoke.
func TestSwapPublicationAtomicUnderReaders(t *testing.T) {
	const swaps = 200
	g := New()
	models := []*edgetpu.CompiledModel{
		testModel(t, 256, 1), testModel(t, 256, 2), testModel(t, 256, 3),
	}
	type fp struct {
		footprint, blob int
	}
	want := map[*edgetpu.CompiledModel]fp{}
	for _, cm := range models {
		want[cm] = fp{footprint: cm.MemoryMap().Used, blob: len(cm.Model.Marshal())}
	}
	if _, err := g.Register("m", models[0], nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	readerErr := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				e, ok := g.Get("m")
				if !ok || e == nil {
					readerErr <- errors.New("registered model vanished")
					return
				}
				exp, known := want[e.Compiled]
				if !known {
					readerErr <- errors.New("entry holds an unpublished compiled model")
					return
				}
				if e.Footprint != exp.footprint || e.BlobBytes != exp.blob {
					readerErr <- fmt.Errorf("torn entry: footprint %d blob %d, want %d %d",
						e.Footprint, e.BlobBytes, exp.footprint, exp.blob)
					return
				}
				if e.Version < last {
					readerErr <- fmt.Errorf("version went backwards: %d after %d", e.Version, last)
					return
				}
				last = e.Version
				if g.Len() != 1 || len(g.IDs()) != 1 {
					readerErr <- errors.New("catalog shape changed under swaps")
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 1; i <= swaps; i++ {
		e, err := g.Swap("m", models[i%len(models)], nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.Version != i+1 {
			t.Fatalf("swap %d produced version %d", i, e.Version)
		}
	}
	close(done)
	wg.Wait()
	close(readerErr)
	for err := range readerErr {
		t.Fatal(err)
	}
	if e, _ := g.Get("m"); e.Version != swaps+1 {
		t.Fatalf("final version %d, want %d", e.Version, swaps+1)
	}
}
