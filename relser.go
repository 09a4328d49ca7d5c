// Package relser is the public API of the relative serializability
// library, a faithful implementation of
//
//	D. Agrawal, J. L. Bruno, A. El Abbadi, V. Krishnaswamy.
//	"Relative Serializability: An Approach for Relaxing the Atomicity
//	of Transactions." PODS 1994.
//
// The package re-exports the transaction model and the paper's theory
// from internal/core:
//
//   - build transactions with T, R and W, and group them with
//     NewTxnSet;
//   - declare relative atomicity with NewSpec / Spec.SetUnits (the
//     Atomicity(Ti, Tj) partitions of §2);
//   - construct schedules with NewSchedule, ParseSchedule or
//     SerialSchedule;
//   - classify them: IsRelativelyAtomic (Definition 1),
//     IsRelativelySerial (Definition 2), IsRelativelySerializable
//     (Theorem 1 via the relative serialization graph), and the
//     classical IsConflictSerializable;
//   - inspect the machinery: ComputeDepends (the depends-on relation),
//     BuildRSG (Definition 3's I/D/F/B-arc graph, with DOT export and
//     witness extraction), BuildSG.
//
// Quick start:
//
//	t1 := relser.T(1, relser.R("x"), relser.W("x"), relser.W("z"), relser.R("y"))
//	t2 := relser.T(2, relser.R("y"), relser.W("y"), relser.R("x"))
//	ts, _ := relser.NewTxnSet(t1, t2)
//	spec := relser.NewSpec(ts)
//	_ = spec.SetUnits(1, 2, 2, 2) // Atomicity(T1,T2) = [r1x w1x][w1z r1y]
//	s, _ := relser.ParseSchedule(ts, "r2[y] r1[x] w1[x] w2[y] r2[x] w1[z] r1[y]")
//	ok := relser.IsRelativelySerializable(s, spec)
//
// The execution side of the reproduction — storage engine, online
// protocols (strict 2PL, SGT, the paper's RSGT, altruistic locking),
// the transaction runtime and the workload generators — lives under
// internal/ and is exercised through the cmd/ binaries (rscheck,
// rsenum, rssim, rsbench) and the examples/ programs; see DESIGN.md
// for the full inventory.
package relser

import (
	"relser/internal/core"
)

// Core model types (see internal/core for full documentation).
type (
	// TxnID identifies a transaction; IDs are positive.
	TxnID = core.TxnID
	// OpKind distinguishes reads from writes.
	OpKind = core.OpKind
	// Op is one read or write operation on a named object.
	Op = core.Op
	// Transaction is a totally ordered operation sequence.
	Transaction = core.Transaction
	// TxnSet is an indexed, immutable set of transactions.
	TxnSet = core.TxnSet
	// Schedule is a complete interleaving of a TxnSet.
	Schedule = core.Schedule
	// Spec holds relative atomicity specifications (§2).
	Spec = core.Spec
	// Depends is the depends-on relation (§2), kept as per-transaction clocks.
	Depends = core.Depends
	// Violation explains a failed class membership test.
	Violation = core.Violation
	// RSG is the relative serialization graph (Definition 3).
	RSG = core.RSG
	// SG is the classical serialization graph.
	SG = core.SG
	// ArcKind is the I/D/F/B arc-kind bitmask of RSG arcs.
	ArcKind = core.ArcKind
	// ConflictPair is an ordered conflicting operation pair.
	ConflictPair = core.ConflictPair
	// Instance bundles a set, a spec and named schedules (text format).
	Instance = core.Instance
)

// Operation kinds and RSG arc kinds.
const (
	ReadOp  = core.ReadOp
	WriteOp = core.WriteOp

	IArc = core.IArc
	DArc = core.DArc
	FArc = core.FArc
	BArc = core.BArc
)

// Model constructors.
var (
	// R builds a read operation for use with T.
	R = core.R
	// W builds a write operation for use with T.
	W = core.W
	// T assembles a transaction from R/W operations.
	T = core.T
	// NewTxnSet validates and indexes transactions.
	NewTxnSet = core.NewTxnSet
	// MustTxnSet is NewTxnSet panicking on error.
	MustTxnSet = core.MustTxnSet

	// NewSchedule validates a complete interleaving.
	NewSchedule = core.NewSchedule
	// MustSchedule is NewSchedule panicking on error.
	MustSchedule = core.MustSchedule
	// SerialSchedule executes whole transactions in the given order.
	SerialSchedule = core.SerialSchedule
	// ConflictEquivalent compares conflict orders of two schedules (§2).
	ConflictEquivalent = core.ConflictEquivalent

	// NewSpec returns the absolute-atomicity specification.
	NewSpec = core.NewSpec

	// ComputeDepends returns the depends-on relation (§2).
	ComputeDepends = core.ComputeDepends
	// ComputeDirectDepends is the non-transitive ablation (Figure 2).
	ComputeDirectDepends = core.ComputeDirectDepends

	// IsRelativelyAtomic tests Definition 1 membership.
	IsRelativelyAtomic = core.IsRelativelyAtomic
	// IsRelativelySerial tests Definition 2 membership.
	IsRelativelySerial = core.IsRelativelySerial
	// IsRelativelySerialUnder tests Definition 2 with a caller-supplied
	// depends-on relation.
	IsRelativelySerialUnder = core.IsRelativelySerialUnder
	// IsRelativelySerializable tests Theorem 1's criterion (RSG
	// acyclicity).
	IsRelativelySerializable = core.IsRelativelySerializable
	// IsConflictSerializable tests the classical criterion.
	IsConflictSerializable = core.IsConflictSerializable

	// BuildRSG constructs the relative serialization graph.
	BuildRSG = core.BuildRSG
	// BuildRSGUnder constructs it with a caller-supplied depends-on.
	BuildRSGUnder = core.BuildRSGUnder
	// BuildSG constructs the classical serialization graph.
	BuildSG = core.BuildSG
	// SerialWitness extracts a conflict-equivalent serial schedule.
	SerialWitness = core.SerialWitness

	// ParseOp, ParseOps, ParseTxn and ParseSchedule read the paper's
	// r1[x] notation; ParseInstance reads full instance files and
	// FormatInstance writes them.
	ParseOp        = core.ParseOp
	ParseOps       = core.ParseOps
	ParseTxn       = core.ParseTxn
	ParseSchedule  = core.ParseSchedule
	ParseInstance  = core.ParseInstance
	FormatInstance = core.FormatInstance
)
