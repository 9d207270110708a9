// Package nocsched is an open-source reproduction of the DATE 2004
// paper "Energy-Aware Communication and Task Scheduling for
// Network-on-Chip Architectures under Real-Time Constraints" by Jingcao
// Hu and Radu Marculescu.
//
// It provides, built from scratch on the standard library:
//
//   - Communication Task Graphs (CTG) with per-PE execution time and
//     energy tables and real-time deadlines;
//   - heterogeneous tile-based NoC platforms: 2-D meshes with XY/YX
//     dimension-ordered routing, the honeycomb topology of the paper's
//     future work, and arbitrary deterministic-routing topologies;
//   - the bit-energy communication model Ebit = ESbit + ELbit and the
//     Architecture Characterization Graph (ACG);
//   - the EAS scheduler — slack budgeting, level-based co-scheduling of
//     computation and communication with exact link-contention schedule
//     tables, and search-and-repair (local task swapping + global task
//     migration) — plus an EDF baseline;
//   - a pseudo-TGFF random benchmark generator and synthetic MP3/H.263
//     multimedia system benchmarks;
//   - a flit-level wormhole network simulator that replays schedules
//     and independently verifies the scheduler's contention model;
//   - a unified telemetry layer: a zero-dependency metrics registry,
//     scheduler phase tracing and Chrome trace_event export (schedules
//     rendered one track per PE and per link, loadable in Perfetto);
//   - experiment drivers regenerating every table and figure of the
//     paper's evaluation.
//
// This package is the stable public facade: it re-exports the pieces a
// downstream user composes. The quickstart is three calls:
//
//	platform, _ := nocsched.NewHeterogeneousMesh(4, 4, nocsched.RouteXY, 256)
//	acg, _ := nocsched.BuildACG(platform, nocsched.DefaultEnergyModel())
//	result, _ := nocsched.EAS(graph, acg, nocsched.EASOptions{})
//
// See the examples/ directory for runnable programs and DESIGN.md for
// the architecture and the paper-experiment index.
package nocsched

import (
	"nocsched/internal/batch"
	"nocsched/internal/ctg"
	"nocsched/internal/dls"
	"nocsched/internal/eas"
	"nocsched/internal/edf"
	"nocsched/internal/energy"
	"nocsched/internal/msb"
	"nocsched/internal/noc"
	"nocsched/internal/obs"
	"nocsched/internal/sched"
	"nocsched/internal/sim"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
	"nocsched/internal/verify"
)

// ---------------------------------------------------------------------
// Communication Task Graphs (Definition 1).

// Graph is a Communication Task Graph: a DAG of tasks with per-PE
// execution time/energy arrays and deadline annotations, connected by
// arcs carrying communication volumes.
type Graph = ctg.Graph

// Task is one CTG vertex.
type Task = ctg.Task

// EdgeArc is one CTG arc (named to avoid clashing with topology links).
type EdgeArc = ctg.Edge

// TaskID identifies a task within a Graph.
type TaskID = ctg.TaskID

// EdgeID identifies an arc within a Graph.
type EdgeID = ctg.EdgeID

// NoDeadline marks a task without a designer-specified deadline.
const NoDeadline = ctg.NoDeadline

// NewGraph returns an empty CTG with the given name.
func NewGraph(name string) *Graph { return ctg.New(name) }

// ReadGraphJSON decodes a CTG from JSON (see Graph.WriteJSON).
var ReadGraphJSON = ctg.ReadJSON

// CrossDep declares a dependency between consecutive iterations of a
// periodic application (for Unroll).
type CrossDep = ctg.CrossDep

// Unroll replicates a periodic CTG n times with per-iteration deadline
// offsets and cross-iteration dependencies, enabling pipelined
// multi-frame scheduling.
var Unroll = ctg.Unroll

// ---------------------------------------------------------------------
// Platforms (Sec. 3.1).

// Topology describes a tile interconnect with deterministic routing.
type Topology = noc.Topology

// Platform couples a topology with per-tile PE classes and link
// bandwidth.
type Platform = noc.Platform

// PEClass characterizes one processing-element type of the
// heterogeneous tile library.
type PEClass = noc.PEClass

// Mesh is a 2-D mesh topology with dimension-ordered routing.
type Mesh = noc.Mesh

// RoutingScheme selects XY or YX dimension-ordered routing.
type RoutingScheme = noc.RoutingScheme

// Routing schemes supported by Mesh.
const (
	RouteXY = noc.RouteXY
	RouteYX = noc.RouteYX
)

// TileID identifies a tile (and its PE) on a platform.
type TileID = noc.TileID

// LinkID identifies a directed inter-tile link.
type LinkID = noc.LinkID

// Standard PE classes (a reference RISC, a fast energy-hungry CPU, a
// DSP, and a low-power embedded core).
var (
	ClassRISC = noc.ClassRISC
	ClassCPU  = noc.ClassCPU
	ClassDSP  = noc.ClassDSP
	ClassARM  = noc.ClassARM
)

// Torus is a 2-D torus topology (mesh with wrap-around channels) with
// minimal dimension-ordered routing.
type Torus = noc.Torus

// NewMesh builds a width x height mesh with the given routing scheme.
var NewMesh = noc.NewMesh

// NewTorus builds a width x height torus.
var NewTorus = noc.NewTorus

// NewHoneycomb builds the honeycomb topology of the paper's future work.
var NewHoneycomb = noc.NewHoneycomb

// NewGraphTopology builds an arbitrary topology with deterministic
// shortest-path routing from an adjacency list.
var NewGraphTopology = noc.NewGraphTopology

// NewPlatform couples a topology, per-tile PE classes and a link
// bandwidth into a schedulable platform.
var NewPlatform = noc.NewPlatform

// PlatformSpec is the JSON description of a platform (see
// ReadPlatformSpec and the cmd/easched -platform flag).
type PlatformSpec = noc.PlatformSpec

// ReadPlatformSpec decodes and builds a platform from its JSON spec.
var ReadPlatformSpec = noc.ReadPlatformSpec

// NewHeterogeneousMesh builds a mesh platform whose tiles cycle through
// the standard heterogeneous PE library.
var NewHeterogeneousMesh = noc.NewHeterogeneousMesh

// ---------------------------------------------------------------------
// Energy model and ACG (Sec. 3.2, Definition 2).

// EnergyModel holds the bit-energy coefficients ESbit and ELbit.
type EnergyModel = energy.Model

// ACG is the Architecture Characterization Graph: precomputed routes,
// hop counts, per-bit energies and bandwidths for every PE pair.
type ACG = energy.ACG

// DefaultEnergyModel returns representative bit-energy coefficients.
var DefaultEnergyModel = energy.DefaultModel

// BuildACG precomputes the ACG for a platform under an energy model.
var BuildACG = energy.BuildACG

// BuildACGWeighted precomputes an ACG with per-link length factors, for
// layouts whose wire energies do not follow a pure hop count (the
// paper's honeycomb remark).
var BuildACGWeighted = energy.BuildACGWeighted

// UniformLinkScale returns an all-ones per-link scale for a topology.
var UniformLinkScale = energy.UniformLinkScale

// ---------------------------------------------------------------------
// Schedules (Sec. 4).

// Schedule is a complete static schedule: task placements, transaction
// placements, energy accounting, deadline analysis and validation.
type Schedule = sched.Schedule

// TaskPlacement fixes where and when one task executes.
type TaskPlacement = sched.TaskPlacement

// TransactionPlacement fixes when one transaction occupies its route.
type TransactionPlacement = sched.TransactionPlacement

// ReadScheduleJSON imports a schedule exported with Schedule.WriteJSON,
// re-binding and re-validating it against the problem instance it was
// built for.
var ReadScheduleJSON = sched.ReadJSON

// ReadScheduleJSONLenient imports a schedule without validating it, for
// feeding untrusted or deliberately broken artifacts to the conformance
// oracle: malformed placements become typed findings instead of load
// errors.
var ReadScheduleJSONLenient = sched.ReadJSONLenient

// ---------------------------------------------------------------------
// Conformance verification.

// VerifyReport is the conformance oracle's verdict on one schedule: a
// list of typed findings, empty when the schedule conforms.
type VerifyReport = verify.Report

// VerifyFinding is one violation: a class plus the task, edge, PE or
// link it anchors to.
type VerifyFinding = verify.Finding

// VerifyClass partitions findings by the invariant they violate.
type VerifyClass = verify.Class

// VerifyOptions tune the oracle: a findings cap.
type VerifyOptions = verify.Options

// Finding classes, one per verified invariant family.
const (
	VerifyClassShape       = verify.ClassShape
	VerifyClassTask        = verify.ClassTask
	VerifyClassPrecedence  = verify.ClassPrecedence
	VerifyClassPEOverlap   = verify.ClassPEOverlap
	VerifyClassRoute       = verify.ClassRoute
	VerifyClassLinkOverlap = verify.ClassLinkOverlap
	VerifyClassDeadline    = verify.ClassDeadline
	VerifyClassEnergy      = verify.ClassEnergy
)

// VerifySchedule re-checks a schedule against its problem instance from
// first principles — precedence with communication delays, PE mutual
// exclusion (Definition 4), link slot capacity (Definition 3), route
// validity, deadlines, and bit-exact Eq. (2)/(3) energy accounting —
// sharing no code with the builder's Validate.
var VerifySchedule = verify.Check

// VerifyScheduleOptions is VerifySchedule with explicit options.
var VerifyScheduleOptions = verify.CheckOptions

// ExpectedFlitEnergy predicts the wormhole simulator's measured
// communication energy for a schedule from the analytic model, for
// cross-checking replay accounting.
var ExpectedFlitEnergy = sim.ExpectedFlitEnergy

// ---------------------------------------------------------------------
// Schedulers (Sec. 5).

// EASOptions configures the EAS scheduler; the zero value is the
// paper's configuration.
type EASOptions = eas.Options

// EASResult bundles the schedule with budgeting and repair artifacts.
type EASResult = eas.Result

// EAS runs the paper's Energy-Aware Scheduling algorithm (Steps 1-3).
func EAS(g *Graph, acg *ACG, opts EASOptions) (*EASResult, error) {
	return eas.Schedule(g, acg, opts)
}

// EDFOptions configure the EDF baseline's telemetry; the zero value is
// the default.
type EDFOptions = edf.Options

// EDF runs the baseline Earliest-Deadline-First scheduler.
func EDF(g *Graph, acg *ACG) (*Schedule, error) {
	return edf.Schedule(g, acg)
}

// EDFWithOptions runs the EDF baseline with explicit options.
// Telemetry never changes the schedule.
func EDFWithOptions(g *Graph, acg *ACG, opts EDFOptions) (*Schedule, error) {
	return edf.ScheduleOpts(g, acg, opts)
}

// ScheduleDiff compares two schedules of the same instance and returns
// a description of the first discrepancy, or "" when they are
// bit-identical (placements, transaction slots, exact total energy).
var ScheduleDiff = sched.Diff

// DLS runs the Dynamic Level Scheduling baseline of Sih & Lee — the
// communication-aware, performance-oriented list scheduler the paper
// cites as related work.
func DLS(g *Graph, acg *ACG) (*Schedule, error) {
	return dls.Schedule(g, acg)
}

// ---------------------------------------------------------------------
// Batch scheduling (internal/batch, DESIGN.md §8).

// BatchEngine schedules streams of independent instances over a worker
// pool with reusable builders, delivering results in submission order
// with schedules bit-identical at any worker count.
type BatchEngine = batch.Engine

// BatchInstance is one scheduling problem submitted to a BatchEngine.
type BatchInstance = batch.Instance

// BatchResult is the outcome of one BatchInstance, in submission order.
type BatchResult = batch.Result

// BatchOptions configures a BatchEngine (worker count, admission queue
// depth, telemetry).
type BatchOptions = batch.Options

// BatchStream is one batch run: a single-producer instance stream with
// ordered results (see BatchEngine.Stream).
type BatchStream = batch.Stream

// NewBatchEngine returns a batch engine with the options' defaults
// resolved (Workers: GOMAXPROCS, QueueDepth: 2x workers); each worker
// solves its instances one at a time with one prober.
var NewBatchEngine = batch.New

// Batch algorithm names for BatchInstance.Algorithm.
const (
	BatchAlgoEAS = batch.AlgoEAS
	BatchAlgoEDF = batch.AlgoEDF
	BatchAlgoDLS = batch.AlgoDLS
)

// Slack-allocation weight functions for EASOptions.Weight.
var (
	// WeightVarEVarR is the paper's weight W = VAR_e * VAR_r.
	WeightVarEVarR = eas.WeightVarEVarR
	// WeightVarE uses only the energy variance (ablation).
	WeightVarE = eas.WeightVarE
	// WeightUniform splits slack evenly (ablation).
	WeightUniform = eas.WeightUniform
)

// ---------------------------------------------------------------------
// Benchmark generators (Sec. 6).

// TGFFParams parameterizes the pseudo-TGFF random CTG generator.
type TGFFParams = tgff.Params

// TGFFShape selects the generator's structural family.
type TGFFShape = tgff.Shape

// Generator shapes.
const (
	ShapeLayered        = tgff.ShapeLayered
	ShapeSeriesParallel = tgff.ShapeSeriesParallel
)

// GenerateTGFF builds a seeded random CTG.
var GenerateTGFF = tgff.Generate

// Clip is one multimedia input clip profile (akiyo/foreman/toybox).
type Clip = msb.Clip

// Multimedia System Benchmark constructors (Sec. 6.2).
var (
	// MSBClips are the three clips of the paper's tables.
	MSBClips = msb.Clips
	// MSBEncoder builds the 24-task A/V encoder CTG.
	MSBEncoder = msb.Encoder
	// MSBDecoder builds the 16-task A/V decoder CTG.
	MSBDecoder = msb.Decoder
	// MSBIntegrated builds the 40-task combined system CTG.
	MSBIntegrated = msb.Integrated
)

// ---------------------------------------------------------------------
// Wormhole simulation.

// SimOptions configures the flit-level wormhole replay.
type SimOptions = sim.Options

// SimResult is the outcome of replaying a schedule in the simulator.
type SimResult = sim.Result

// Replay simulates a schedule's transactions flit by flit through the
// wormhole network and reports delivery times, stalls and measured
// energy.
var Replay = sim.Replay

// ---------------------------------------------------------------------
// Telemetry (internal/telemetry).

// Telemetry bundles a metrics registry and a phase tracer into the one
// optional handle the schedulers and the simulator accept
// (EASOptions.Telemetry, EDFOptions.Telemetry, SimOptions.Telemetry).
// A nil *Telemetry disables collection at zero cost; attaching one
// never changes scheduling decisions (schedules stay bit-identical,
// guarded by differential tests).
type Telemetry = telemetry.Collector

// TelemetryRegistry is the named-metric store (counters, gauges,
// histograms, counter grids) instrumented code publishes into.
type TelemetryRegistry = telemetry.Registry

// TelemetrySnapshot is a point-in-time copy of a registry's metrics,
// with JSON (WriteJSON) and human-readable (WriteText) renderings.
type TelemetrySnapshot = telemetry.Snapshot

// TraceSink consumes tracer events; sinks record the first write error
// and surface it from Err/Close.
type TraceSink = telemetry.Sink

// ChromeTraceSink writes the Chrome trace_event JSON array format,
// loadable in Perfetto and chrome://tracing.
type ChromeTraceSink = telemetry.ChromeSink

// NewTelemetry returns a collector with a fresh registry and a tracer
// over sink (nil sink: metrics only).
var NewTelemetry = telemetry.NewCollector

// NewChromeTraceSink starts a trace_event array on a writer.
var NewChromeTraceSink = telemetry.NewChromeSink

// ValidateChromeTrace checks a trace_event artifact and returns its
// non-metadata event count; ValidateMetricsSnapshot checks a metrics
// snapshot JSON document and returns the decoded snapshot. The CI
// telemetry lane runs both against real easched artifacts.
var (
	ValidateChromeTrace     = telemetry.ValidateChromeTrace
	ValidateMetricsSnapshot = telemetry.ValidateSnapshot
)

// ---------------------------------------------------------------------
// Live observability plane (internal/obs, DESIGN.md §9).

// ObsOptions configures ServeObservability: the telemetry registry to
// expose and an optional readiness probe for /readyz.
type ObsOptions = obs.Options

// ObsServer is a running observability HTTP server (/metrics in
// Prometheus text format, /healthz, /readyz, /snapshot,
// /debug/pprof/). Scraping never perturbs scheduling: handlers are
// read-only consumers of registry snapshots.
type ObsServer = obs.Server

// ServeObservability starts the ops HTTP server on addr (":0" picks a
// free port — read it back with Addr/URL). Close it when done.
var ServeObservability = obs.Serve

// RuntimeMetrics is a running Go runtime collector publishing
// runtime_* and process_* series (heap, GC cycles and pauses,
// goroutines, uptime) into a telemetry registry.
type RuntimeMetrics = obs.RuntimeCollector

// StartRuntimeMetrics starts a runtime collector sampling every
// interval (and at Close).
var StartRuntimeMetrics = obs.StartRuntime

// MetricsStream periodically appends timestamped telemetry snapshots
// as JSON lines — a flight-recorder time-series for a run.
type MetricsStream = obs.SnapshotStream

// StartMetricsStream starts a snapshot stream on a writer, sampling at
// start, every interval, and at Close.
var StartMetricsStream = obs.StartSnapshotStream

// WritePrometheus renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4); ValidatePrometheus parses an
// exposition document and returns its sample count (the CI
// service lane runs it against live schedd scrapes);
// ValidateMetricsStream checks a JSONL snapshot time-series.
var (
	WritePrometheus       = obs.WritePrometheus
	ValidatePrometheus    = obs.ValidateExposition
	ValidateMetricsStream = obs.ValidateSnapshotStream
)
