package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStaggeredSchedule(t *testing.T) {
	const (
		gap = 3 * time.Millisecond
		ia  = 700 * time.Microsecond
	)
	for _, w := range []int{1, 2, 4} {
		at := Staggered(w, gap, ia)
		for i := 0; i < 20; i++ {
			var want time.Duration
			if i < w {
				want = time.Duration(i) * gap
			} else {
				want = time.Duration(w-1)*gap + time.Duration(i-w+1)*ia
			}
			if got := at(i); got != want {
				t.Errorf("Staggered(%d)(%d) = %v, want %v", w, i, got, want)
			}
		}
	}
	plain := Staggered(1, gap, ia)
	for i := 0; i < 20; i++ {
		if got, want := plain(i), time.Duration(i)*ia; got != want {
			t.Errorf("Staggered(1)(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestClosedLoopIssuesEachOnce(t *testing.T) {
	for _, tc := range []struct{ clients, n int }{{1, 0}, {1, 5}, {2, 13}, {7, 3}} {
		t.Run(fmt.Sprintf("clients=%d/n=%d", tc.clients, tc.n), func(t *testing.T) {
			var mu sync.Mutex
			seen := make(map[int]int)
			last := make(map[int]int) // per client, the last i it issued
			_, err := ClosedLoop(tc.clients, tc.n, func(i int) error {
				mu.Lock()
				defer mu.Unlock()
				c := i % tc.clients
				if prev, ok := last[c]; ok && i != prev+tc.clients {
					t.Errorf("client %d issued %d after %d", c, i, prev)
				}
				last[c] = i
				seen[i]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != tc.n {
				t.Fatalf("issued %d distinct requests, want %d", len(seen), tc.n)
			}
			for i := 0; i < tc.n; i++ {
				if seen[i] != 1 {
					t.Errorf("request %d issued %d times", i, seen[i])
				}
			}
		})
	}
}

func TestClosedLoopReturnsFirstError(t *testing.T) {
	boom := errors.New("boom")
	var issued atomic.Int32
	_, err := ClosedLoop(1, 10, func(i int) error {
		issued.Add(1)
		if i >= 3 {
			return fmt.Errorf("request %d: %w", i, boom)
		}
		return nil
	})
	if err == nil || err.Error() != "request 3: boom" {
		t.Fatalf("err = %v, want request 3's", err)
	}
	if n := issued.Load(); n != 4 {
		t.Errorf("client issued %d requests after its error, want it to stop at 4", n)
	}

	// With several clients, only the failing client stops.
	issued.Store(0)
	_, err = ClosedLoop(2, 13, func(i int) error {
		issued.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Client 1 issues 1, 3, 5 and stops; client 0 issues all 7 evens.
	if n := issued.Load(); n != 10 {
		t.Errorf("issued %d requests, want 10", n)
	}
}

func TestOpenLoopWaitsForEveryIssue(t *testing.T) {
	const n = 8
	var started sync.WaitGroup
	started.Add(n)
	release := make(chan struct{})
	var finished atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		OpenLoop(n, Staggered(1, 0, 0), func(int) {
			started.Done()
			<-release
			finished.Add(1)
		})
	}()
	started.Wait()
	select {
	case <-done:
		t.Fatal("OpenLoop returned while its issues were still running")
	default:
	}
	close(release)
	<-done
	if got := finished.Load(); got != n {
		t.Fatalf("OpenLoop returned after %d of %d issues finished", got, n)
	}
}
