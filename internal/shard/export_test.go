package shard

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// Nodes returns the shard ids in order.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.order...) }

// KillShard permanently crashes a shard node: the transport forgets it,
// so every RPC fails with ErrUnavailable as for an unregistered node,
// and its intake closes, so Ingest reports false.
func (c *Cluster) KillShard(id string) {
	c.transport.mu.Lock()
	delete(c.transport.nodes, id)
	c.transport.mu.Unlock()
	c.nodes[id].Close()
}

// SetRetryAttempts sets how many times every controller of the cluster
// tries an RPC (rpcAttempts otherwise). Call it before the first Step.
func (c *Cluster) SetRetryAttempts(n int) {
	for _, ct := range c.ctrls {
		ct.SetRetryAttempts(n)
	}
}

// SetEvictAfter sets how many consecutive failed-collect rounds evict a
// shard on every controller of the cluster (evictAfter otherwise). Call
// it before the first Step.
func (c *Cluster) SetEvictAfter(n int) {
	for _, ct := range c.ctrls {
		ct.evictAt = n
	}
}

// SetReady gives shard id the readiness gate NodeConfig.Ready would.
// Call it before the first Step.
func (c *Cluster) SetReady(id string, ready func() bool) { c.nodes[id].ready = ready }

// SetRetryAttempts sets how many times the controller tries an RPC
// (rpcAttempts otherwise). Call it before the controller's first RPC.
func (ct *Controller) SetRetryAttempts(n int) { ct.attempts = n }

// Owner returns the shard owning the flow key, or "" for an empty
// membership.
func (r *Ring) Owner(key uint32) string {
	i := r.OwnerIndex(key)
	if i < 0 {
		return ""
	}
	return r.ids[i]
}

// Term returns the lease term this controller last led at.
func (ct *Controller) Term() uint64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.term
}
