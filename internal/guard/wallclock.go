package guard

import "time"

// WallClock returns a monotonic seconds-scale clock for WithDeadline. It
// is the guard layer's single wall-clock site, allowlisted in
// .csi-vet.conf: nothing reads it unless a production caller explicitly
// arms a wall-clock deadline (the -deadline flags in cmd/ and
// csi-monitord's live-mode -solve-deadline), so every golden and test path
// stays deterministic.
func WallClock() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}
