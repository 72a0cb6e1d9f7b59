include Eventsim.Engine.Cpu
