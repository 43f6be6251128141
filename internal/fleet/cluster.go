package fleet

import (
	"math"

	"sx4bench/internal/fault"
	"sx4bench/internal/superux"
)

// Node is one member of a running cluster: a spec sheet plus the live
// SUPER-UX instance scheduled on it.
type Node struct {
	Spec NodeSpec
	Sys  *superux.System
}

// Cluster stands N nodes behind one NQS-style queue: arrivals are
// routed to the least-loaded node that can hold them, faults delivered
// per node from plans derived off one fleet seed, and jobs a CPU
// failure leaves homeless on one node migrate — checkpoint state and
// all — to a surviving node instead of failing, as long as anywhere in
// the fleet can hold them.
type Cluster struct {
	Nodes []*Node

	jobs    []jobRecord
	byJob   map[jobKey]int // (node, local job ID) -> jobs index
	pending []pendingMigration
}

// jobKey addresses a job record by its current placement.
type jobKey struct {
	node    int
	localID int
}

// jobRecord is the cluster-level life of one arrival.
type jobRecord struct {
	submitAt   float64
	node       int // current node index; -1 once failed fleet-wide
	localID    int
	migrations int
}

// pendingMigration is a job accepted off a failing node, awaiting
// placement once every node has reached the migration's simulated
// time.
type pendingMigration struct {
	record int
	job    superux.Job
}

// NewCluster stands up one node per spec, each with its fault plan
// derived from the fleet seed (node i runs fault.NewNodePlan(seed, i,
// horizon, eventsPerNode)) and its migrator wired into the cluster.
// eventsPerNode == 0 builds a fault-free fleet.
func NewCluster(specs []NodeSpec, fleetSeed int64, horizon float64, eventsPerNode int) *Cluster {
	c := &Cluster{byJob: make(map[jobKey]int)}
	for i, ns := range specs {
		n := &Node{Spec: ns, Sys: newNodeSystem(ns)}
		if eventsPerNode > 0 {
			n.Sys.SetInjector(fault.NewNodePlan(fleetSeed, i, horizon, eventsPerNode))
		}
		from := i
		n.Sys.SetMigrator(func(j superux.Job) bool { return c.acceptMigration(from, j) })
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// acceptMigration is node from's migrator: accept the homeless job iff
// some other live node can hold it, and buffer the move — placement
// happens only after every node has advanced to the current time, so
// migrations never outrun the completions-win-ties rule.
func (c *Cluster) acceptMigration(from int, j superux.Job) bool {
	if c.bestNode(j.CPUs, j.MemGB, func(*Node) float64 { return j.Seconds }, from) < 0 {
		return false
	}
	rec, ok := c.byJob[jobKey{node: from, localID: j.ID}]
	if !ok {
		return false // not a cluster-routed job (defensive; never expected)
	}
	c.pending = append(c.pending, pendingMigration{record: rec, job: j})
	return true
}

// bestNode picks the home for a job of the given shape: among live
// nodes (excluding skip) whose blocks can hold it, the one with the
// smallest estimated completion — per-CPU-normalized backlog plus the
// job's duration at that node's speed (secondsFn, so a fast idle node
// beats a slow idle one) — with ties to the lowest fleet index.
// Returns -1 when nowhere fits.
func (c *Cluster) bestNode(cpus int, memGB float64, secondsFn func(*Node) float64, skip int) int {
	best, bestScore := -1, math.Inf(1)
	for i, n := range c.Nodes {
		if i == skip || n.Sys.Down() || !n.Sys.CanHold(cpus, memGB) {
			continue
		}
		score := n.Sys.Backlog()/float64(n.Spec.CPUs) + secondsFn(n)
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// secondsOn converts an arrival's demand into a duration on a node:
// fixed Seconds win, otherwise work over the node's aggregate rate for
// the job's processor allocation.
func secondsOn(a Arrival, n *Node) float64 {
	if a.Seconds > 0 {
		return a.Seconds
	}
	cpus := a.CPUs
	if cpus < 1 {
		cpus = 1
	}
	return a.WorkMFLOP / (n.Spec.PerCPUMFLOPS * float64(cpus))
}

// Result is one cluster run's outcome.
type Result struct {
	// Jobs counts arrivals; Finished those that completed.
	Jobs     int
	Finished int
	// Makespan is the latest completion time across the fleet.
	Makespan float64
	// Latencies holds submission-to-completion seconds for finished
	// jobs, in arrival order (migrated and restarted jobs measure from
	// their original arrival).
	Latencies []float64
	// Recovered counts finished jobs that survived at least one
	// checkpoint restart or cross-node migration; Failed those no
	// surviving capacity could hold; Lost is the invariant counter —
	// jobs in no terminal state after the fleet idles — pinned to zero
	// by the cluster tests.
	Recovered, Failed, Lost int
}

// Run drives the full fleet over an arrival schedule (ascending At)
// until every node is idle and every fault delivered, then returns the
// cluster accounting. The loop advances all nodes to the globally
// earliest pending event — arrival, completion or fault — drains
// buffered migrations, then dispatches the arrivals due at that time;
// nodes are always visited in fleet order, so the run is a pure
// function of (specs, seed, arrivals).
func (c *Cluster) Run(arrivals []Arrival) Result {
	next := 0
	for {
		t := math.Inf(1)
		if next < len(arrivals) {
			t = arrivals[next].At
		}
		for _, n := range c.Nodes {
			if at, ok := n.Sys.NextEventAt(); ok && at < t {
				t = at
			}
		}
		if math.IsInf(t, 1) {
			break
		}
		for _, n := range c.Nodes {
			n.Sys.AdvanceUntil(t)
		}
		c.placeMigrations(t)
		for next < len(arrivals) && arrivals[next].At <= t {
			c.dispatch(arrivals[next])
			next++
		}
	}
	return c.summarize()
}

// dispatch routes one arrival onto the fleet, or records it failed
// when no live node can hold its shape.
func (c *Cluster) dispatch(a Arrival) {
	rec := len(c.jobs)
	c.jobs = append(c.jobs, jobRecord{submitAt: a.At, node: -1})
	node := c.bestNode(a.CPUs, a.MemGB, func(n *Node) float64 { return secondsOn(a, n) }, -1)
	if node < 0 {
		return
	}
	n := c.Nodes[node]
	block, ok := n.Sys.HomeFor(a.CPUs, a.MemGB)
	if !ok {
		return
	}
	id := n.Sys.Submit(superux.Job{
		Name:     a.Name,
		Block:    block,
		CPUs:     a.CPUs,
		MemGB:    a.MemGB,
		Seconds:  secondsOn(a, n),
		Priority: a.Priority,
	})
	c.jobs[rec].node = node
	c.jobs[rec].localID = id
	c.byJob[jobKey{node: node, localID: id}] = rec
}

// placeMigrations resubmits every buffered migration at time t: the
// job's checkpointed remaining work (restart overhead included) lands
// on the best surviving node, or the record fails fleet-wide if the
// last candidate died since acceptance. Placement order is acceptance
// order — itself deterministic because nodes advance in fleet order.
func (c *Cluster) placeMigrations(t float64) {
	for len(c.pending) > 0 {
		batch := c.pending
		c.pending = nil
		for _, p := range batch {
			rec := &c.jobs[p.record]
			node := c.bestNode(p.job.CPUs, p.job.MemGB, func(*Node) float64 { return p.job.Seconds }, rec.node)
			if node < 0 {
				rec.node = -1
				continue
			}
			n := c.Nodes[node]
			block, ok := n.Sys.HomeFor(p.job.CPUs, p.job.MemGB)
			if !ok {
				rec.node = -1
				continue
			}
			id := n.Sys.Submit(superux.Job{
				Name:     p.job.Name,
				Block:    block,
				CPUs:     p.job.CPUs,
				MemGB:    p.job.MemGB,
				Seconds:  p.job.Seconds,
				Priority: p.job.Priority,
			})
			rec.node = node
			rec.localID = id
			rec.migrations++
			c.byJob[jobKey{node: node, localID: id}] = p.record
		}
	}
}

// summarize folds the per-job records into the cluster accounting,
// walking records in arrival order (never a map).
func (c *Cluster) summarize() Result {
	res := Result{Jobs: len(c.jobs)}
	for i := range c.jobs {
		rec := &c.jobs[i]
		if rec.node < 0 {
			res.Failed++
			continue
		}
		j := c.Nodes[rec.node].Sys.Jobs[rec.localID]
		switch j.State {
		case superux.Done:
			res.Finished++
			res.Latencies = append(res.Latencies, j.FinishAt-rec.submitAt)
			if j.FinishAt > res.Makespan {
				res.Makespan = j.FinishAt
			}
			if j.Restarts > 0 || rec.migrations > 0 {
				res.Recovered++
			}
		case superux.Failed:
			res.Failed++
		default:
			res.Lost++
		}
	}
	return res
}
