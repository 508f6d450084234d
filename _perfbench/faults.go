package main

// Planted faults, one per correctness check, used by the self-test to
// show that each check fails the run.
const (
	// composite-read: a mid composite wired (a+b+d+d)/4.
	faultCompositeWiring = "composite-wiring"
	// composite-read: a mid composite serves a cached value, so probe
	// values are reused instead of read.
	faultCompositeCache = "composite-cache"
	// replicated-exertion: the provider's mul is off by one.
	faultWrongResult = "exertion-wrong-result"
	// replicated-exertion: an envelope no worker serves sits in the space.
	faultEnvelopeLeft = "exertion-envelope-left"
	// replicated-exertion: every envelope batch is written twice.
	faultServedTwice = "exertion-served-twice"
	// replicated-exertion: a record reaches the primary's log only.
	faultLogDiverged = "exertion-log-diverged"
	// subscribe-fanout: one subscriber sees a replayed SeqNo.
	faultSeqRegress = "fanout-seq-regress"
	// subscribe-fanout: one Source stops before the final values.
	faultFinalValue = "fanout-final-value"
)
