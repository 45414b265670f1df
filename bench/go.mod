module charm/bench

go 1.22

require charm v0.0.0

replace charm => ../
