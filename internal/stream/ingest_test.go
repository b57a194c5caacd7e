package stream

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csi/internal/core"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/testleak"
)

// ingestOpts is a monitor over the fuzz ladder whose solves are cheap: the
// synthetic frames below carry no SNI, so each solve fails fast in Step 1
// and still counts as a completed solve.
func ingestOpts(policy string, obsT *obs.Tracer) Options {
	return Options{
		Manifest:   fuzzManifest(),
		Params:     core.Params{MediaHost: "media.example.com"},
		ShedPolicy: policy,
		Obs:        obsT,
	}
}

func ingestFrame(flow string, i int) Frame {
	return Frame{Flow: flow, Packet: packet.View{Time: float64(i) / 1000, Dir: packet.Down, ConnID: 1, Size: 1500}}
}

// waitFor fails the test if ch yields nothing within a generous bound, so
// a regression shows as a failure rather than a hung test binary.
func waitFor[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// ringLen reports how many frames the ingest ring holds.
func (m *Monitor) ringLen() int {
	m.ringMu.Lock()
	defer m.ringMu.Unlock()
	return m.ringN
}

// TestIngestDuringDrainIsProcessed pins that a frame Ingest accepts is
// always processed, even when Drain starts while that Ingest is between
// its stopped check and its copy into the ring — csi-monitord's SIGTERM
// path, where the reader keeps ingesting while Drain runs. Drain must wait
// for the copy and sweep the frame, so it is counted and its flow gets a
// result.
func TestIngestDuringDrainIsProcessed(t *testing.T) {
	testleak.Check(t)
	for _, policy := range []string{ShedDrop, ShedBlock} {
		t.Run(policy, func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			testHookIngest = func() { once.Do(func() { close(entered); <-release }) }
			defer func() { testHookIngest = nil }()
			obsT := obs.New(nil, nil)
			mon := New(ingestOpts(policy, obsT))

			accepted := make(chan bool, 1)
			go func() { accepted <- mon.Ingest(ingestFrame("a", 0)) }()
			<-entered // past the stopped check, not yet copied, ring lock held
			drained := make(chan []Result, 1)
			go func() { drained <- mon.Drain() }()
			// Let Drain queue on the ring lock before the frame is copied:
			// if it could set stopped and the control loop sweep the ring
			// first, the frame would land unread.
			time.Sleep(50 * time.Millisecond)
			close(release)

			ok := waitFor(t, accepted, "the held Ingest")
			results := waitFor(t, drained, "Drain")
			frames := obsT.Metrics().Counter("stream.frames_total").Value()
			if !ok || frames != 1 || len(results) != 1 || results[0].Packets != 1 {
				t.Fatalf("Ingest returned %v; stream.frames_total = %d; results %+v; want true, 1 and one result of 1 packet",
					ok, frames, results)
			}
			if mon.Ingest(ingestFrame("a", 1)) {
				t.Fatalf("Ingest accepted a frame after Drain returned")
			}
		})
	}
}

// TestBlockedIngestRefusedOnDrain pins the ShedBlock fallback: a producer
// blocked on a full ring returns false as soon as Drain starts, every frame
// accepted before it is processed, and no goroutine is left behind. The
// control loop is held by a stalled solve (testHookSolve) that it must wait
// for under ShedBlock's fixed cadence.
func TestBlockedIngestRefusedOnDrain(t *testing.T) {
	testleak.Check(t)
	solving, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookSolve = func(string) { once.Do(func() { close(solving); <-release }) }
	defer func() { testHookSolve = nil }()
	obsT := obs.New(nil, nil)
	opts := ingestOpts(ShedBlock, obsT)
	opts.ResolveEvery = 1
	mon := New(opts)

	// Frame 0 schedules the first solve, which stalls. Frame 1 is buffered
	// in pending; frame 2 falls due while that solve runs, so the control
	// loop waits for it and stops reading the ring. It has taken frames 1
	// and 2 in a batch of at most frameBatch; the frames after that batch
	// fill the ring, and the next one blocks. The producer stops at its
	// first refusal.
	if !mon.Ingest(ingestFrame("a", 0)) {
		t.Fatal("first frame refused")
	}
	<-solving
	const total = ringSize + frameBatch + 4
	results := make(chan []bool, 1)
	go func() {
		var oks []bool
		for i := 1; i < total; i++ {
			ok := mon.Ingest(ingestFrame("a", i))
			oks = append(oks, ok)
			if !ok {
				break
			}
		}
		results <- oks
	}()
	for mon.ringLen() < ringSize {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the producer block on the full ring

	drained := make(chan []Result, 1)
	go func() { drained <- mon.Drain() }()
	oks := waitFor(t, results, "the blocked producer")
	close(release)
	res := waitFor(t, drained, "Drain")

	accepted := 1
	for i, ok := range oks {
		if ok {
			accepted++
		} else if i != len(oks)-1 {
			t.Fatalf("frame %d refused before Drain began", i+1)
		}
	}
	if oks[len(oks)-1] {
		t.Fatalf("the producer blocked on a full ring returned true after Drain began")
	}
	frames := obsT.Metrics().Counter("stream.frames_total").Value()
	if frames != int64(accepted) || len(res) != 1 || res[0].Packets != accepted {
		t.Fatalf("accepted %d frames; stream.frames_total = %d; results %+v", accepted, frames, res)
	}
}

// TestBatchedReceiveLandsSolves pins that the control loop's batched ring
// receive returns to its full select: a solve completion that arrives
// while the ShedDrop ring is full must be handled after at most a few
// batches, not once the ring has emptied. The flow re-solves after every
// packet, so its second solve covers exactly the packets the control loop
// had taken when the first solve's completion landed.
func TestBatchedReceiveLandsSolves(t *testing.T) {
	testleak.Check(t)
	solving, finish := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookSolve = func(string) { once.Do(func() { close(solving); <-finish }) }
	covered := make(chan int, 4)
	testHookSolved = func(_ string, n int, _ *core.Inference, _ error) {
		select {
		case covered <- n:
		default:
		}
	}
	defer func() { testHookSolve, testHookSolved = nil, nil }()
	opts := ingestOpts(ShedDrop, nil)
	opts.ResolveEvery = 1
	mon := New(opts)

	// Frame 0 starts the first solve, which is held. Holding the flow
	// table lock then parks the control loop inside its next frame, so
	// the ring fills completely.
	if !mon.Ingest(ingestFrame("a", 0)) {
		t.Fatal("first frame refused")
	}
	<-solving
	mon.mu.Lock()
	i := 1
	for ; mon.Ingest(ingestFrame("a", i)); i++ {
	}
	if n := mon.ringLen(); n != ringSize {
		t.Fatalf("ring holds %d frames after a shed, want %d", n, ringSize)
	}
	close(finish)
	if n := waitFor(t, covered, "the first solve"); n != 1 {
		t.Fatalf("first solve covered %d packets, want 1", n)
	}
	for len(mon.ctrl) == 0 {
		time.Sleep(time.Millisecond)
	}
	mon.mu.Unlock()

	// Each pass of the control select finds both the ring and the
	// completion ready and takes either; the completion is left behind
	// for every batch in the full ring only with probability 2^-15.
	if n := waitFor(t, covered, "the second solve"); n >= ringSize {
		t.Fatalf("the first completion landed after %d frames, once the %d-frame ring had emptied", n, ringSize)
	}
	mon.Drain()
}

// TestIngestRacesDrain has four producers race Drain under both policies.
// Every Ingest that returned true must be counted in stream.frames_total,
// and each producer's accepted frames, and only those, must reach its
// flow's trace in the order it sent them. Run it under -race.
func TestIngestRacesDrain(t *testing.T) {
	testleak.Check(t)
	const producers, perProducer = 4, 16 * ringSize
	for _, policy := range []string{ShedDrop, ShedBlock} {
		t.Run(policy, func(t *testing.T) {
			var mon *Monitor
			var appliedMu sync.Mutex
			applied := map[string][]float64{}
			// The flows never re-solve mid-stream, so their one solve is the
			// final one, over a frozen trace holding every applied frame.
			testHookSolve = func(flow string) {
				mon.mu.Lock()
				fs := mon.flows[flow]
				mon.mu.Unlock()
				times := make([]float64, len(fs.trace.Packets))
				for i, v := range fs.trace.Packets {
					times[i] = v.Time
				}
				appliedMu.Lock()
				applied[flow] = times
				appliedMu.Unlock()
			}
			defer func() { testHookSolve = nil }()
			obsT := obs.New(nil, nil)
			mon = New(ingestOpts(policy, obsT))

			var wg sync.WaitGroup
			var total atomic.Int64
			accepted := make([][]float64, producers)
			for p := range accepted {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					flow := fmt.Sprintf("p%d", p)
					for i := 0; i < perProducer; i++ {
						f := ingestFrame(flow, i)
						if mon.Ingest(f) {
							accepted[p] = append(accepted[p], f.Packet.Time)
							total.Add(1)
						} else if policy == ShedBlock {
							if mon.Ingest(ingestFrame(flow, i+1)) {
								t.Errorf("producer %d: a refused Ingest was followed by an accepted one", p)
							}
							return
						}
					}
				}(p)
			}
			for total.Load() < 2*ringSize {
				runtime.Gosched()
			}
			results := mon.Drain()
			wg.Wait()

			sum := int64(0)
			for _, a := range accepted {
				sum += int64(len(a))
			}
			if frames := obsT.Metrics().Counter("stream.frames_total").Value(); frames != sum {
				t.Fatalf("producers had %d frames accepted; stream.frames_total = %d", sum, frames)
			}
			packets := map[string]int{}
			for _, r := range results {
				packets[r.Flow] = r.Packets
			}
			for p, want := range accepted {
				flow := fmt.Sprintf("p%d", p)
				if got := applied[flow]; !slices.Equal(got, want) {
					t.Fatalf("producer %d: %d frames accepted, %d applied, or out of order", p, len(want), len(got))
				}
				if packets[flow] != len(want) {
					t.Fatalf("producer %d: %d frames accepted, result covers %d", p, len(want), packets[flow])
				}
			}
		})
	}
}
