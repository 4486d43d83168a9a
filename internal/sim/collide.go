package sim

// collide finds this tick's drone-drone collisions: for each drone i in
// ascending order that is not yet crashed, it finds the smallest j > i
// that is not yet crashed and within threshold, crashes both and
// appends the pair (i, j) to pairs, which it returns. Crashes made
// earlier in the same pass suppress later pairs, so the order of the
// scan is observable behaviour. Pass pairs[:0] to reuse the buffer.
func collide(bodies []Body, threshold float64, pairs [][2]int) [][2]int {
	for i := 0; i < len(bodies); i++ {
		if bodies[i].Crashed {
			continue
		}
		for j := i + 1; j < len(bodies); j++ {
			if bodies[j].Crashed {
				continue
			}
			if bodies[i].Pos.Dist(bodies[j].Pos) <= threshold {
				bodies[i].Crashed = true
				bodies[j].Crashed = true
				pairs = append(pairs, [2]int{i, j})
				break
			}
		}
	}
	return pairs
}
