module wilocator/bench

go 1.22

require wilocator v0.0.0

replace wilocator => ../
