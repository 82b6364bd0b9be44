module ml4db/bench

go 1.22

require ml4db v0.0.0

replace ml4db => ../
