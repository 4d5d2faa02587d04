//go:build race

package main

// raceEnabled: the race detector slows simulation about tenfold, so a
// fixed-rate service run saturates and sheds load.
const raceEnabled = true
