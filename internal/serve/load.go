package serve

import (
	"sync"
	"time"
)

// Load drivers: the two ways the serving experiments, cmd/hdc-serve and the
// serving bench offer requests to a Node.
//
// An open-loop driver issues arrivals on a fixed schedule whether or not
// earlier requests have settled, so offered load is independent of how the
// server copes with it. Arrival i is due at start+at(i), an absolute
// deadline, rather than one gap after arrival i-1: OS timer slack then turns
// into small catch-up bursts instead of silently capping the offered rate,
// so the measured load multiple stays honest when sleeps overshoot.
//
// A closed-loop driver runs a fixed number of clients, each issuing its next
// request only when the previous one has returned, so offered load is the
// server's own pace.

// OpenLoop starts issue(i) in its own goroutine at start+at(i) for every i in
// [0, n), waits for all of them to return and returns the time elapsed since
// start.
func OpenLoop(n int, at func(i int) time.Duration, issue func(i int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(at(i))); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			issue(i)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// Staggered is the open-loop arrival schedule: the first workers arrivals
// come gap apart, then one arrives every interarrival. Under overload a
// paced worker's cycle is exactly its service time, so arrivals bunched at
// the start would keep the workers in phase for the whole run and stretch
// queue waits toward a full service interval; spacing the first arrivals
// one gap apart (a service interval over the worker count) starts them out
// of phase. Staggered(1, 0, interarrival) is the plain schedule
// i·interarrival.
func Staggered(workers int, gap, interarrival time.Duration) func(i int) time.Duration {
	return func(i int) time.Duration {
		if i < workers {
			return time.Duration(i) * gap
		}
		return time.Duration(workers-1)*gap + time.Duration(i-workers+1)*interarrival
	}
}

// ClosedLoop runs clients concurrent clients over the requests [0, n):
// client c issues i = c, c+clients, c+2·clients, … in order, each after the
// previous one has returned. A client stops at its first error; the others
// run to the end. ClosedLoop returns the time elapsed until every client
// has finished and the first error any client hit.
func ClosedLoop(clients, n int, issue func(i int) error) (time.Duration, error) {
	start := time.Now()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n; i += clients {
				if err := issue(i); err != nil {
					once.Do(func() { first = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), first
}
