include Engine.Timer
