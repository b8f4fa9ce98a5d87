package adversary

import "dynspread/internal/sim"

// Compile-time interface compliance checks.
var (
	_ Sequence = (*StaticSeq)(nil)
	_ Sequence = (*ChurnSeq)(nil)
	_ Sequence = (*RewireSeq)(nil)
	_ Sequence = (*MarkovianSeq)(nil)
	_ Sequence = (*RegularSeq)(nil)
	_ Sequence = (*RotatingStar)(nil)
	_ Sequence = (*Mobility)(nil)

	_ sim.Adversary = (*RequestCutter)(nil)
	_ sim.Adversary = (*FreeEdge)(nil)
	_ sim.Adversary = (*WeakFreeEdge)(nil)
	_ sim.Adversary = oblivious{}
)
