package dynspread_test

// Golden-seed parity suite: the rows below were produced by the seed engine
// (the pre-refactor split RunUnicast/RunBroadcast loops, after the
// map-iteration determinism fixes in graph.DSU and adversary.RequestCutter)
// for every supported Algorithm×Adversary pair at two fixed seeds. The
// unified round engine must reproduce every row bit-for-bit, which is what
// makes the engine refactor provably behavior-preserving.
//
// Regenerate (only when a deliberate semantic change lands) by running each
// config below through dynspread.Run and rewriting the table.

import (
	"fmt"
	"testing"

	"dynspread"
)

type goldenRow struct {
	alg     string
	adv     string
	sources int
	seed    int64

	completed  bool
	rounds     int
	messages   int64
	broadcasts int64
	learnings  int64
	tc         int64
	removals   int64
}

// goldenN and goldenK are the instance size every golden row runs at.
const (
	goldenN         = 10
	goldenK         = 10
	goldenMaxRounds = 20000
)

var goldenRows = []goldenRow{
	{"single-source", "static", 1, 1, true, 23, 218, 0, 90, 20, 0},
	{"single-source", "static", 1, 7, true, 22, 218, 0, 90, 20, 0},
	{"single-source", "churn", 1, 1, true, 22, 231, 0, 90, 38, 18},
	{"single-source", "churn", 1, 7, true, 23, 229, 0, 90, 40, 20},
	{"single-source", "rewire", 1, 1, true, 42, 337, 0, 90, 470, 450},
	{"single-source", "rewire", 1, 7, true, 43, 365, 0, 90, 490, 470},
	{"single-source", "markovian", 1, 1, true, 38, 254, 0, 90, 96, 85},
	{"single-source", "markovian", 1, 7, true, 44, 265, 0, 90, 118, 109},
	{"single-source", "regular", 1, 1, true, 36, 331, 0, 90, 417, 393},
	{"single-source", "regular", 1, 7, true, 39, 341, 0, 90, 443, 420},
	{"single-source", "rotating-star", 1, 1, true, 84, 277, 0, 90, 337, 328},
	{"single-source", "rotating-star", 1, 7, true, 84, 277, 0, 90, 337, 328},
	{"single-source", "mobility", 1, 1, true, 45, 233, 0, 90, 39, 22},
	{"single-source", "mobility", 1, 7, true, 49, 239, 0, 90, 42, 25},
	{"single-source", "request-cutter", 1, 1, true, 64, 351, 0, 90, 183, 153},
	{"single-source", "request-cutter", 1, 7, true, 50, 298, 0, 90, 141, 112},
	{"multi-source", "static", 3, 1, true, 19, 257, 0, 90, 20, 0},
	{"multi-source", "static", 3, 7, true, 17, 251, 0, 90, 20, 0},
	{"multi-source", "churn", 3, 1, true, 20, 299, 0, 90, 36, 16},
	{"multi-source", "churn", 3, 7, true, 20, 297, 0, 90, 37, 17},
	{"multi-source", "rewire", 3, 1, true, 42, 512, 0, 90, 470, 450},
	{"multi-source", "rewire", 3, 7, true, 42, 501, 0, 90, 480, 460},
	{"multi-source", "markovian", 3, 1, true, 35, 343, 0, 90, 91, 77},
	{"multi-source", "markovian", 3, 7, true, 32, 342, 0, 90, 90, 79},
	{"multi-source", "regular", 3, 1, true, 28, 446, 0, 90, 322, 298},
	{"multi-source", "regular", 3, 7, true, 44, 518, 0, 90, 500, 476},
	{"multi-source", "rotating-star", 3, 1, true, 66, 370, 0, 90, 265, 256},
	{"multi-source", "rotating-star", 3, 7, true, 66, 370, 0, 90, 265, 256},
	{"multi-source", "mobility", 3, 1, true, 41, 324, 0, 90, 36, 21},
	{"multi-source", "mobility", 3, 7, true, 28, 279, 0, 90, 31, 13},
	{"multi-source", "request-cutter", 3, 1, true, 49, 496, 0, 90, 167, 144},
	{"multi-source", "request-cutter", 3, 7, true, 62, 496, 0, 90, 182, 158},
	// The many-source regime (s = n, so I_v grows to n sources), generated
	// from the map-based MultiSource before its dense rewrite. Under the
	// request cutter, which reads LastSent, these rows also pin message
	// contents and order.
	{"multi-source", "static", 10, 1, true, 21, 469, 0, 90, 20, 0},
	{"multi-source", "static", 10, 7, true, 21, 482, 0, 90, 20, 0},
	{"multi-source", "churn", 10, 1, true, 25, 635, 0, 90, 41, 21},
	{"multi-source", "churn", 10, 7, true, 27, 633, 0, 90, 44, 24},
	{"multi-source", "regular", 10, 1, true, 42, 1038, 0, 90, 477, 452},
	{"multi-source", "regular", 10, 7, true, 44, 1041, 0, 90, 500, 476},
	{"multi-source", "request-cutter", 10, 1, true, 59, 1020, 0, 90, 176, 154},
	{"multi-source", "request-cutter", 10, 7, true, 54, 944, 0, 90, 159, 138},
	{"oblivious", "static", 10, 1, true, 21, 469, 0, 90, 20, 0},
	{"oblivious", "static", 10, 7, true, 21, 482, 0, 90, 20, 0},
	{"oblivious", "churn", 10, 1, true, 25, 635, 0, 90, 41, 21},
	{"oblivious", "churn", 10, 7, true, 27, 633, 0, 90, 44, 24},
	{"oblivious", "rewire", 10, 1, true, 44, 1007, 0, 90, 491, 471},
	{"oblivious", "rewire", 10, 7, true, 42, 993, 0, 90, 480, 460},
	{"oblivious", "markovian", 10, 1, true, 51, 801, 0, 90, 128, 117},
	{"oblivious", "markovian", 10, 7, true, 52, 768, 0, 90, 136, 126},
	{"oblivious", "regular", 10, 1, true, 42, 1038, 0, 90, 477, 452},
	{"oblivious", "regular", 10, 7, true, 44, 1041, 0, 90, 500, 476},
	{"oblivious", "rotating-star", 10, 1, true, 40, 537, 0, 90, 161, 152},
	{"oblivious", "rotating-star", 10, 7, true, 40, 537, 0, 90, 161, 152},
	{"oblivious", "mobility", 10, 1, true, 46, 650, 0, 90, 39, 24},
	{"oblivious", "mobility", 10, 7, true, 43, 634, 0, 90, 39, 17},
	{"oblivious", "request-cutter", 10, 1, true, 59, 1020, 0, 90, 176, 154},
	{"oblivious", "request-cutter", 10, 7, true, 54, 944, 0, 90, 159, 138},
	{"spanning-tree", "static", 1, 1, true, 13, 130, 0, 90, 20, 0},
	{"spanning-tree", "static", 1, 7, true, 13, 130, 0, 90, 20, 0},
	{"spanning-tree", "churn", 1, 1, true, 66, 130, 0, 90, 81, 61},
	{"spanning-tree", "churn", 1, 7, true, 74, 130, 0, 90, 88, 68},
	{"spanning-tree", "rewire", 1, 1, true, 46, 135, 0, 90, 512, 492},
	{"spanning-tree", "rewire", 1, 7, true, 33, 136, 0, 90, 383, 363},
	{"spanning-tree", "markovian", 1, 1, true, 105, 117, 0, 90, 246, 233},
	{"spanning-tree", "markovian", 1, 7, true, 205, 117, 0, 90, 486, 475},
	{"spanning-tree", "regular", 1, 1, true, 33, 146, 0, 90, 382, 359},
	{"spanning-tree", "regular", 1, 7, true, 33, 144, 0, 90, 380, 355},
	{"spanning-tree", "rotating-star", 1, 1, true, 60, 108, 0, 90, 241, 232},
	{"spanning-tree", "rotating-star", 1, 7, true, 60, 108, 0, 90, 241, 232},
	{"spanning-tree", "mobility", 1, 1, true, 241, 118, 0, 90, 140, 122},
	{"spanning-tree", "mobility", 1, 7, true, 132, 121, 0, 90, 82, 61},
	{"spanning-tree", "request-cutter", 1, 1, true, 106, 131, 0, 90, 122, 102},
	{"spanning-tree", "request-cutter", 1, 7, true, 85, 130, 0, 90, 103, 83},
	{"topkis", "static", 1, 1, true, 11, 383, 0, 90, 20, 0},
	{"topkis", "static", 1, 7, true, 11, 382, 0, 90, 20, 0},
	{"topkis", "churn", 1, 1, true, 11, 386, 0, 90, 28, 8},
	{"topkis", "churn", 1, 7, true, 14, 433, 0, 90, 31, 11},
	{"topkis", "rewire", 1, 1, true, 23, 755, 0, 90, 259, 239},
	{"topkis", "rewire", 1, 7, true, 20, 688, 0, 90, 233, 213},
	{"topkis", "markovian", 1, 1, true, 29, 498, 0, 90, 79, 66},
	{"topkis", "markovian", 1, 7, true, 32, 539, 0, 90, 90, 79},
	{"topkis", "regular", 1, 1, true, 18, 742, 0, 90, 212, 187},
	{"topkis", "regular", 1, 7, true, 21, 796, 0, 90, 243, 219},
	{"topkis", "rotating-star", 1, 1, true, 42, 711, 0, 90, 169, 160},
	{"topkis", "rotating-star", 1, 7, true, 42, 711, 0, 90, 169, 160},
	{"topkis", "mobility", 1, 1, true, 19, 353, 0, 90, 23, 6},
	{"topkis", "mobility", 1, 7, true, 25, 389, 0, 90, 29, 12},
	{"topkis", "request-cutter", 1, 1, true, 13, 423, 0, 90, 32, 12},
	{"topkis", "request-cutter", 1, 7, true, 12, 401, 0, 90, 31, 11},
	{"flooding", "static", 10, 1, true, 92, 778, 778, 90, 20, 0},
	{"flooding", "static", 10, 7, true, 92, 774, 774, 90, 20, 0},
	{"flooding", "churn", 10, 1, true, 92, 783, 783, 90, 106, 86},
	{"flooding", "churn", 10, 7, true, 93, 772, 772, 90, 106, 86},
	{"flooding", "rewire", 10, 1, true, 93, 786, 786, 90, 1033, 1013},
	{"flooding", "rewire", 10, 7, true, 92, 779, 779, 90, 1015, 995},
	{"flooding", "markovian", 10, 1, true, 94, 716, 716, 90, 223, 211},
	{"flooding", "markovian", 10, 7, true, 95, 735, 735, 90, 233, 222},
	{"flooding", "regular", 10, 1, true, 92, 786, 786, 90, 1029, 1007},
	{"flooding", "regular", 10, 7, true, 92, 789, 789, 90, 1050, 1025},
	{"flooding", "rotating-star", 10, 1, true, 92, 766, 766, 90, 369, 360},
	{"flooding", "rotating-star", 10, 7, true, 92, 766, 766, 90, 369, 360},
	{"flooding", "mobility", 10, 1, true, 94, 750, 750, 90, 63, 44},
	{"flooding", "mobility", 10, 7, true, 95, 741, 741, 90, 59, 43},
	{"flooding", "free-edge", 10, 1, true, 99, 540, 540, 90, 313, 304},
	{"flooding", "free-edge", 10, 7, true, 99, 540, 540, 90, 285, 276},
	{"random-broadcast", "static", 10, 1, true, 24, 240, 240, 90, 20, 0},
	{"random-broadcast", "static", 10, 7, true, 34, 340, 340, 90, 20, 0},
	{"random-broadcast", "churn", 10, 1, true, 19, 190, 190, 90, 35, 15},
	{"random-broadcast", "churn", 10, 7, true, 19, 190, 190, 90, 36, 16},
	{"random-broadcast", "rewire", 10, 1, true, 14, 140, 140, 90, 161, 141},
	{"random-broadcast", "rewire", 10, 7, true, 15, 150, 150, 90, 181, 161},
	{"random-broadcast", "markovian", 10, 1, true, 27, 270, 270, 90, 76, 64},
	{"random-broadcast", "markovian", 10, 7, true, 24, 240, 240, 90, 70, 60},
	{"random-broadcast", "regular", 10, 1, true, 14, 140, 140, 90, 169, 141},
	{"random-broadcast", "regular", 10, 7, true, 11, 110, 110, 90, 137, 114},
	{"random-broadcast", "rotating-star", 10, 1, true, 35, 350, 350, 90, 145, 136},
	{"random-broadcast", "rotating-star", 10, 7, true, 52, 520, 520, 90, 209, 200},
	{"random-broadcast", "mobility", 10, 1, true, 38, 380, 380, 90, 33, 18},
	{"random-broadcast", "mobility", 10, 7, true, 34, 340, 340, 90, 32, 14},
	{"random-broadcast", "free-edge", 10, 1, false, 20000, 200000, 200000, 75, 60513, 60504},
	{"random-broadcast", "free-edge", 10, 7, false, 20000, 200000, 200000, 76, 53274, 53265},
}

func TestGoldenSeedParity(t *testing.T) {
	for _, row := range goldenRows {
		name := fmt.Sprintf("%s/%s/seed%d", row.alg, row.adv, row.seed)
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !row.completed {
				t.Skip("skipping max-rounds golden in -short mode")
			}
			rep, err := dynspread.Run(dynspread.Config{
				N: goldenN, K: goldenK, Sources: row.sources,
				Algorithm: dynspread.Algorithm(row.alg),
				Adversary: dynspread.Adversary(row.adv),
				Seed:      row.seed,
				MaxRounds: goldenMaxRounds,
			})
			if err != nil {
				t.Fatal(err)
			}
			m := rep.Metrics
			got := goldenRow{row.alg, row.adv, row.sources, row.seed,
				rep.Completed, rep.Rounds, m.Messages, m.Broadcasts, m.Learnings, m.TC, m.Removals}
			if got != row {
				t.Errorf("engine diverged from seed engine:\n got  %+v\n want %+v", got, row)
			}
		})
	}
}
