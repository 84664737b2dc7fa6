package router

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hdcedge/internal/serve"
	"hdcedge/internal/tensor"
)

func TestParseChaos(t *testing.T) {
	good := []struct {
		spec string
		want map[int]ChaosPlan
	}{
		{"", map[int]ChaosPlan{}},
		{"0:crash", map[int]ChaosPlan{0: {Mode: ChaosCrash, Seed: 7}}},
		{"2:slow=8", map[int]ChaosPlan{2: {Mode: ChaosSlow, Factor: 8, Seed: 9}}},
		{"1:slow", map[int]ChaosPlan{1: {Mode: ChaosSlow, Factor: 8, Seed: 8}}},
		{"3:hang@0.5", map[int]ChaosPlan{3: {Mode: ChaosHang, Rate: 0.5, Seed: 10}}},
		{"0:crash, 2:slow=4@0.25", map[int]ChaosPlan{
			0: {Mode: ChaosCrash, Seed: 7},
			2: {Mode: ChaosSlow, Factor: 4, Rate: 0.25, Seed: 9},
		}},
	}
	for _, tc := range good {
		plans, err := ParseChaos(tc.spec, 7)
		if err != nil {
			t.Fatalf("ParseChaos(%q): %v", tc.spec, err)
		}
		if len(plans) != len(tc.want) {
			t.Fatalf("ParseChaos(%q) = %v, want %v", tc.spec, plans, tc.want)
		}
		for node, want := range tc.want {
			if plans[node] != want {
				t.Fatalf("ParseChaos(%q)[%d] = %+v, want %+v", tc.spec, node, plans[node], want)
			}
		}
	}
	bad := []struct {
		spec        string
		wantSegment string
	}{
		{"crash", "crash"},                     // no node prefix
		{"-1:crash", "-1:crash"},               // negative node
		{"x:crash", "x:crash"},                 // non-integer node
		{"0:melt", "0:melt"},                   // unknown mode
		{"0:crash=2", "0:crash=2"},             // factor on a non-slow mode
		{"0:slow=1", "0:slow=1"},               // factor must exceed 1
		{"0:slow=0.5", "0:slow=0.5"},           // ditto
		{"0:hang@1.5", "0:hang@1.5"},           // rate outside [0, 1]
		{"0:crash@0.5", "0:crash@0.5"},         // crash is not rateable
		{"0:crash,0:hang", "0:hang"},           // duplicate node
		{"0:slow=x", "0:slow=x"},               // bad factor
		{"0:hang@x", "0:hang@x"},               // bad rate
		{"0:crash,", ""},                       // trailing comma leaves an empty segment
		{",0:crash", ""},                       // leading comma too
		{"0:crash,,1:hang", ""},                // and a doubled one
		{"0:crash, ,1:hang", ""},               // whitespace-only segment
		{"1:slow,1:slow=4", "1:slow=4"},        // duplicate via different forms
		{"2:hang@0.5,0:melt", "0:melt"},        // later segment blamed, not the spec head
		{"0:crash,1:hang@-0.1", "1:hang@-0.1"}, // negative rate
	}
	for _, tc := range bad {
		plans, err := ParseChaos(tc.spec, 7)
		if err == nil {
			t.Fatalf("ParseChaos(%q) accepted: %v", tc.spec, plans)
		}
		var se *ChaosSpecError
		if !errors.As(err, &se) {
			t.Fatalf("ParseChaos(%q) error %v (%T) is not a *ChaosSpecError", tc.spec, err, err)
		}
		if se.Spec != tc.spec {
			t.Fatalf("ParseChaos(%q) error carries spec %q", tc.spec, se.Spec)
		}
		if se.Segment != tc.wantSegment {
			t.Fatalf("ParseChaos(%q) blames segment %q, want %q (%v)", tc.spec, se.Segment, tc.wantSegment, err)
		}
		if se.Reason == "" || !strings.Contains(err.Error(), se.Reason) {
			t.Fatalf("ParseChaos(%q) error %q does not render its reason %q", tc.spec, err, se.Reason)
		}
	}
}

// FuzzParseChaos hardens the spec parser against arbitrary operator input:
// it must never panic, every rejection must be a typed *ChaosSpecError
// carrying the spec, and every accepted plan must validate cleanly with
// the node-offset seed.
func FuzzParseChaos(f *testing.F) {
	seeds := []string{
		"", "0:crash", "2:slow=8", "1:slow", "3:hang@0.5",
		"0:crash, 2:slow=4@0.25", "crash", "-1:crash", "x:crash",
		"0:melt", "0:crash=2", "0:slow=1", "0:slow=0.5", "0:hang@1.5",
		"0:crash@0.5", "0:crash,0:hang", "0:slow=x", "0:hang@x",
		"0:crash,", ",,", "0:slow=8@0.5@0.5", "00:crash", "0:SLOW=2",
		"9999999999999999999:crash", "0:slow=1e300", "0:hang@0", "0:hang@1",
	}
	for _, s := range seeds {
		f.Add(s, uint64(7))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		plans, err := ParseChaos(spec, seed)
		if err != nil {
			var se *ChaosSpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseChaos(%q) error %v (%T) is not a *ChaosSpecError", spec, err, err)
			}
			if se.Spec != spec {
				t.Fatalf("ParseChaos(%q) error carries spec %q", spec, se.Spec)
			}
			if plans != nil {
				t.Fatalf("ParseChaos(%q) returned plans alongside an error", spec)
			}
			return
		}
		for node, p := range plans {
			if node < 0 {
				t.Fatalf("ParseChaos(%q) accepted node %d", spec, node)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("ParseChaos(%q) produced an invalid plan for node %d: %v", spec, node, err)
			}
			if !p.Enabled() {
				t.Fatalf("ParseChaos(%q) produced a no-op plan for node %d: %+v", spec, node, p)
			}
			if p.Seed != seed+uint64(node) {
				t.Fatalf("ParseChaos(%q) node %d seed %d, want %d", spec, node, p.Seed, seed+uint64(node))
			}
		}
	})
}

func TestChaosCrashNode(t *testing.T) {
	inner := newFakeNode(0, instant)
	c, err := NewChaosNode(inner, 0, ChaosPlan{Mode: ChaosCrash})
	if err != nil {
		t.Fatal(err)
	}
	// The node is dead from its first request on, and stays dead.
	for i := 0; i < 3; i++ {
		_, err := c.Do(context.Background(), nil, nil)
		var crash *CrashError
		if !errors.As(err, &crash) || crash.Node != 0 {
			t.Fatalf("post-crash request %d returned %v, want CrashError", i, err)
		}
	}
	if inner.calls.Load() != 0 {
		t.Fatalf("crashed node still forwarded requests: %d inner calls", inner.calls.Load())
	}
}

func TestChaosHangNodeReleasedByContext(t *testing.T) {
	inner := newFakeNode(0, instant)
	c, err := NewChaosNode(inner, 0, ChaosPlan{Mode: ChaosHang})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Do(ctx, nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung request returned %v, want deadline", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("hung request settled before its context died")
	}
	if inner.calls.Load() != 0 {
		t.Fatal("hang forwarded the request to the inner node")
	}
}

func TestChaosSlowNodeStretchesLatency(t *testing.T) {
	inner := newFakeNode(0, func(int64) (time.Duration, error) { return 2 * time.Millisecond, nil })
	c, err := NewChaosNode(inner, 0, ChaosPlan{Mode: ChaosSlow, Factor: 4})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	consumed := false
	if _, err := c.Do(context.Background(), nil, func(*tensor.Tensor) { consumed = true }); err != nil {
		t.Fatal(err)
	}
	// ~2ms inner + ~6ms injected stall; allow generous scheduling slack
	// below but insist on well beyond the inner latency alone.
	if elapsed := time.Since(start); elapsed < 6*time.Millisecond {
		t.Fatalf("gray-slow node answered in %v, want ≥ ~4× the inner 2ms", elapsed)
	}
	if !consumed {
		t.Fatal("slow node dropped the result")
	}
}

func TestChaosRateIsSeededDeterministic(t *testing.T) {
	// Two hang@0.5 nodes with the same seed must strand exactly the same
	// request positions; a different seed must give a different pattern.
	pattern := func(seed uint64) []bool {
		inner := newFakeNode(0, instant)
		c, err := NewChaosNode(inner, 0, ChaosPlan{Mode: ChaosHang, Rate: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		hits := make([]bool, 64)
		for i := range hits {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			_, err := c.Do(ctx, nil, nil)
			cancel()
			hits[i] = errors.Is(err, context.DeadlineExceeded)
		}
		return hits
	}
	a, b, other := pattern(11), pattern(11), pattern(12)
	hitsA, diff := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d faulted under one run of seed 11 but not the other", i)
		}
		if a[i] {
			hitsA++
		}
		if a[i] != other[i] {
			diff++
		}
	}
	if hitsA < 16 || hitsA > 48 {
		t.Fatalf("rate 0.5 hit %d of 64 requests", hitsA)
	}
	if diff == 0 {
		t.Fatal("seeds 11 and 12 produced identical fault patterns")
	}
}

func TestChaosHungNodeDrainForceSettles(t *testing.T) {
	// Requests stranded by a hang must settle with the typed chaos drain
	// error the moment the node drains — Drain never waits for them.
	inner := newFakeNode(0, instant)
	c, err := NewChaosNode(inner, 0, ChaosPlan{Mode: ChaosHang})
	if err != nil {
		t.Fatal(err)
	}
	const stuck = 4
	errs := make(chan error, stuck)
	for i := 0; i < stuck; i++ {
		go func() {
			_, err := c.Do(context.Background(), nil, nil)
			errs <- err
		}()
	}
	// Wait for all of them to be admitted into the hang.
	for {
		c.mu.Lock()
		n := len(c.hung)
		c.mu.Unlock()
		if n == stuck {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatalf("drain with hung requests: %v", err)
	}
	for i := 0; i < stuck; i++ {
		var de *serve.DrainError
		if err := <-errs; !errors.As(err, &de) || de.Stage != "chaos-hung" {
			t.Fatalf("hung request %d settled with %v, want chaos-hung DrainError", i, err)
		}
	}
	// Post-drain submissions are shed, not hung.
	_, err = c.Do(context.Background(), nil, nil)
	var shed *serve.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("post-drain request returned %v, want shed", err)
	}
}
