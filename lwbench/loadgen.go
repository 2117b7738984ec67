package main

import (
	"sync"
	"time"
)

// openLoopResult is what an open-loop generator measured.
type openLoopResult struct {
	fromDue  []float64 // µs from each request's due time to its completion
	fromSend []float64 // µs from each request's send to its completion
	lag      []float64 // µs each send ran behind its due time
	errors   int
	dropped  int // requests not sent because too many were in flight
}

// maxInFlight caps the open loop's outstanding requests. A monitor that
// reaches it has a growing backlog; the excess counts as failures rather
// than as unbounded goroutines.
const maxInFlight = 256

// openLoop sends do at a fixed rate from start until end, each request on
// its own goroutine so a stalled request never delays the next send, and
// returns once every request has completed. Latency is measured from the
// due time, so a stall is charged to every request that waited behind it.
func openLoop(start, end time.Time, rate float64, do func() error) openLoopResult {
	var (
		mu  sync.Mutex
		res openLoopResult
		wg  sync.WaitGroup
	)
	sem := make(chan struct{}, maxInFlight)
	period := time.Duration(float64(time.Second) / rate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			mu.Lock()
			res.dropped++
			mu.Unlock()
			continue
		}
		sent := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := do()
			done := time.Now()
			<-sem
			mu.Lock()
			defer mu.Unlock()
			res.lag = append(res.lag, us(sent.Sub(due)))
			if err != nil {
				res.errors++
				return
			}
			res.fromDue = append(res.fromDue, us(done.Sub(due)))
			res.fromSend = append(res.fromSend, us(done.Sub(sent)))
		}()
	}
	wg.Wait()
	return res
}

// attempted is the number of requests the generator was due to send.
func (r openLoopResult) attempted() int { return len(r.lag) + r.dropped }

// failed counts requests that errored or were never sent.
func (r openLoopResult) failed() int { return r.errors + r.dropped }
