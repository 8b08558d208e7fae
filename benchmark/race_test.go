//go:build race

package main

// raceDetector: the detector slows the pipeline several times over, so a
// paced 20 000 rows/s overloads it and rows are shed.
const raceDetector = true
