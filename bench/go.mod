module github.com/score-dc/score/bench

go 1.21

require github.com/score-dc/score v0.0.0

replace github.com/score-dc/score => ../
