package shard

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// Nodes returns the shard ids in order.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.order...) }

// KillShard permanently crashes a shard node.
func (c *Cluster) KillShard(id string) {
	if n := c.nodes[id]; n != nil {
		n.Crash()
	}
}

// Crash simulates a permanent shard death: RPCs stop answering and
// ingest stops accepting. The chaos harness's shard-crash and the
// KillShard test hook land here.
func (n *Node) Crash() { n.crashed.Store(true) }
