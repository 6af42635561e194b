// Package repro is a from-scratch Go reproduction of "Microarchitecture
// Level Reliability Comparison of Modern GPU Designs: First Findings"
// (Vallero, Di Carlo, Tselonis, Gizopoulos — ISPASS 2017).
//
// The root package holds the benchmark harness that regenerates the
// paper's three figures (see bench_test.go); the system itself lives in
// the internal packages:
//
//   - internal/nvsim + internal/sass: NVIDIA SIMT simulator and SASS-like
//     ISA (the GUFI substrate, standing in for GPGPU-Sim 3.2.2);
//   - internal/amdsim + internal/siasm: AMD Southern Islands simulator
//     and SI-like ISA (the SIFI substrate, standing in for Multi2Sim 4.2);
//   - internal/workloads: the 10-benchmark suite in both ISA dialects;
//   - internal/finject, internal/ace: the two reliability methodologies;
//   - internal/metrics, internal/protect: AVF/FIT/EIT/EPF and protection
//     what-if analysis;
//   - internal/experiment, internal/report: declarative experiment specs
//     (the three figures are canned ones), their runner and renderers.
//
// See README.md for usage, DESIGN.md for the system inventory and
// EXPERIMENTS.md for measured-vs-paper results.
package repro
