package core

import "dynspread/internal/sim"

// Compile-time interface compliance checks.
var (
	_ sim.Protocol = (*MultiSource)(nil)
	_ sim.Protocol = (*Oblivious)(nil)
	_ sim.Protocol = (*SpanningTree)(nil)
	_ sim.Protocol = (*Topkis)(nil)

	_ sim.BroadcastProtocol = (*Flooding)(nil)
	_ sim.BroadcastProtocol = (*RandomBroadcast)(nil)
	_ sim.BroadcastProtocol = (*SilentBroadcast)(nil)
)
