// Package stellar is a from-scratch Go reproduction of "Fast and secure
// global payments with Stellar" (SOSP 2019): the Stellar Consensus
// Protocol, the federated Byzantine agreement model, and the full payment
// network built on them. See README.md for the guided tour, DESIGN.md for
// the system inventory, and EXPERIMENTS.md for the paper-vs-measured
// record. A validator is cmd/stellar-node; `stellar-obs tables` and
// bench_test.go regenerate every table and figure of the paper's
// evaluation.
package stellar
