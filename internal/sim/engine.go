// Package sim provides the deterministic core every machine runs on: a
// scheduler for simulated threads that always advances the thread with the
// smallest local clock, and contended resources modeled as exact busy-interval
// calendars.
//
// All simulated time is measured in processor cycles (the paper's machines
// cycle at 1 GHz, so a cycle is also a nanosecond, but nothing here depends
// on that).
package sim

// Time is a point in simulated time, in CPU cycles.
type Time uint64

// Never is a sentinel Time larger than any reachable simulation time.
const Never = Time(1<<63 - 1)
